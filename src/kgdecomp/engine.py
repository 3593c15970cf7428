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

No 2^n matrix is decomposed or exponentiated in a level. In the
last-qubit block view (rows and columns 0::2 and 1::2) the theta_Z stage
is one cosine-sine decomposition G = diag(U1, U2) [[C, -S], [S, C]]
diag(V1, V2)^dag (Sutton, Numer. Algorithms 50:33, 2009), which gives
m0, the SVD of m0's off-diagonal block and K00 = diag(U1 V1^dag,
U2 V2^dag) as its two blocks (_theta_z_log). Every K-type factor of a
level is such a multiplexor diag(B0, B1), and the level keeps it as its
two 2^(n-1) blocks and their determinant (BlockPair): with
K01 = diag(A, B), each theta_X stage is handed (W0, W1) =
(U1 V1^dag A, U2 V2^dag B) or (A^dag, B^dag) and never forms
theta_X(w^dag) w at 2^n, since that is diag(P, P^dag) with
P = W1^dag W0. One Schur form of P gives the log, the cofactor
k = w e^(-m), the central I..IZ phase and the F_n rotation
(_secondary_stage). The stage checks its blocks' unitarity and its P,
and checks the determinant the level carries from the two factors in
place of taking it again.

Each Cartan stage is solved in closed form, with no iteration. Both
Cartan sets are a commuting set W of words on the first n - 1 qubits
times one last letter: H_n = W (x) X and F_n = (W minus I..I) (x) Z. In
the block view a k element is diag(A, B), so the theta_Z stage needs
the SVD of the off-diagonal block of m0 and the theta_X stage the
eigenvectors of its diagonal block, with A and B mapping the joint
eigenbasis of W onto them. This is the cosine-sine split and the
demultiplexing step of the quantum Shannon decomposition (Shende,
Bullock and Markov, IEEE TCAD 25:1000, 2006; Paige and Wei, Linear
Algebra Appl. 208:303, 1994), which Drury and Love (J. Phys. A
41:395305, 2008) showed is the KG decomposition with exactly these
involutions.

Each Cartan set is diagonal in one fixed unitary basis Q, kept with the
set's torus (basis.cartan_torus), and a stage takes its set as that
torus alone: Q = U (x) Hadamard for H_n and U (x) I2 for F_n, with U the
joint eigenbasis of W and the last qubit least significant. A stage
rotates its input once, x~ = P^dag m0 P with P = K Q, and reads
everything off x~: the Cartan coordinates (2 / 2^n) signs Im diag(x~),
in the torus's canonical label order, then the off-span residual, the
relative commutator from the eigenvalues mu of -i v and E_s from the
weights C_ab, all three from one weighted sum of |x~|^2 with weights
kept on the torus (_stage_figures). The central word I..IZ is diagonal
already and splits off by a trace of the diagonal. No stack of word
matrices is ever built. The Cartan element is only ever determined up
to its Weyl orbit, so each solve checks that exp(h) and exp(m0) share
their eigenphases: those of exp(h) are its diagonal phases p in Q,
those of exp(m0) the eigenvalues of the Hermitian -i m0 (the +-Theta of
the CSD), both wrapped into (-pi, pi]; no exponential is built.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
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
    KgDecompError,
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
    _concatenate,
    _csd,
    _cyclic_phase_mismatch,
    _det,
    _identity,
    _norm,
    _schur,
    _svd,
    _unitarity_gap,
    _vdot,
    _wrapped_phases,
    as_matrix,
    expm_skew,
    # commutation_defect, eigenphase_mismatch, expm_skew_many,
    # logm_unitary, project_onto_span and _newton_polish are unused here
    # since the stages read the Cartan words off their torus, compare
    # eigenphases from the generators, take their logs from one CSD or
    # Schur form and solve in closed form, and nearest_special_unitary
    # since nothing is re-unitarized; perfbench/spans.py still patches
    # them at these names
    _newton_polish,
    commutation_defect,
    eigenphase_mismatch,
    expm_skew_many,
    logm_unitary,
    nearest_special_unitary,
    project_onto_span,
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
_DRIFT_TOL = 1e-12
_INGEST_TOL = 1e-8
_CLUSTER_TOL = 1e-13
_IN_SPAN_TOL = 1e-12
# far above 1e-24, the in-span bound squared, and above rounding
_OFF_SPAN_SHARE = 1e-6
# eigenphases of P = W1^dag W0 this close above -pi are moved up by 2 pi,
# so that an eigenvalue -1 takes one branch of the theta_X log
_MINUS_ONE_BRANCH = 1e-9
_SQRT2 = float(np.sqrt(2.0))


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


class BlockPair(NamedTuple):
    """A K-type diag(B0, B1) in the last-qubit block view, kept as its
    two 2^(n-1) blocks, with det = det B0 det B1 carried from where the
    blocks were made."""

    b0: np.ndarray
    b1: np.ndarray
    det: complex


class CartanSolve(NamedTuple):
    """_minimize_full's solution of a theta_Z stage against a torus with
    basis Q: k1, also as its blocks k1_blocks, and h = k1^dag m0 k1
    snapped onto the span as Q (i diag(p)) Q^dag, with coordinates
    coords in torus.labels order and the pre-projection residual
    residual_norm; subspace_error is the commutation defect of the raw
    h. h's matrix is built only where it is returned (_cartan_element)."""

    k1: np.ndarray
    k1_blocks: BlockPair
    p: np.ndarray
    coords: Tuple[float, ...]
    residual_norm: float
    subspace_error: float


class LevelResult(NamedTuple):
    """Factors, phase and labeled diagnostics of one level, or of a whole
    subtree once _recurse has spliced the children in."""

    factors: Tuple[Factor, ...]
    phase: float
    subspace_errors: Tuple[Tuple[str, float], ...]


def validate_special_unitary(g: np.ndarray) -> float:
    """Returns the unitarity defect, raising if g is not SU within 1e-8."""
    defect = _unitarity_defect(g)
    _check_det(_det(as_matrix(g)))
    return defect


def _unitarity_defect(g: np.ndarray) -> float:
    """||g g^dag - I||_F of a matrix, or over a (2, h, h) stack of the
    blocks of a diag(B0, B1), raising NotUnitaryError above 1e-8 or on a
    non-finite entry."""
    # checked first, so that no det of a NaN or inf matrix is taken
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise NotUnitaryError("input has non-finite entries")
    g = np.asarray(g, dtype=complex)
    defect = _unitarity_gap(g if g.ndim == 3 else as_matrix(g))
    # written as `not <=` so that a NaN defect fails too
    if not defect <= _INGEST_TOL:
        raise NotUnitaryError(
            f"unitarity defect {defect:.3e} exceeds {_INGEST_TOL:.3e}"
        )
    return defect


def _check_det(det: complex, where: str = "") -> None:
    """Raises NotUnitaryError when |det - 1| exceeds 1e-8."""
    defect = abs(det - 1.0)
    if not defect <= _INGEST_TOL:
        raise NotUnitaryError(
            f"determinant defect {defect:.3e}{where} exceeds {_INGEST_TOL:.3e}"
        )


def compute_m(
    g: np.ndarray,
    inv: AxisInvolution,
    fixing: Sequence[AxisInvolution] = (),
) -> AlgebraElement:
    """The involution logarithm m = (1/2) log(theta(g^dag) g) on its subspace.

    Takes the two involution pairs of a level, and decomposes no 2^n
    matrix for either. compute_m(g, theta_Z) is the m0 of one CSD of
    g's last-qubit blocks (_theta_z_log), with the CSD's reconstruction
    residual on residual_norm. compute_m(g, theta_X, (theta_Z,)), on a
    g = diag(W0, W1) fixed by theta_Z, is (1/2) diag(L, -L) with
    exp(L) = P = W1^dag W0, exactly theta_X-odd and theta_Z-even. It
    checks the whole register first: a g whose off-diagonal blocks
    exceed SUBSPACE_TOL is refused, residual_norm is the norm of the
    theta_Z-odd part of theta_X(g^dag) g, and det W0 det W1 must be 1
    within 1e-8. It then takes L from the blocks by the theta_X stage's
    own block log (_theta_x_log), which a level calls on its blocks
    alone. Both logs are theta-odd also where theta(g^dag) g has the
    eigenvalue -1, whose principal log is theta-even there, and
    exp(2m) = theta(g^dag) g holds within tolerance (a tested invariant).

    Raises:
        ValueError: (inv, fixing) is neither (theta_Z, ()) nor
            (theta_X, (theta_Z,)) of one register.
        NotUnitaryError: g is not special unitary within tolerance.
        SubspaceViolationError: projection residual exceeds the subspace
            tolerance.
    """
    g = np.asarray(g, dtype=complex)
    fixing = tuple(fixing)
    if inv.axis == "Z" and not fixing:
        if g.shape != (inv.dim, inv.dim):
            raise DimensionMismatchError(
                f"expected shape {(inv.dim, inv.dim)}, got {g.shape}"
            )
        return _theta_z_log(g)[0]
    if inv.axis == "X" and fixing == (AxisInvolution(inv.n, "Z"),):
        defect = _unitarity_defect(g)
        w = inv.apply(g.conj().T) @ g
        # the block form needs g = diag(W0, W1); an input off that form,
        # such as I..IX, is refused before its blocks are read
        off_blocks = float(np.hypot(_norm(g[0::2, 1::2]), _norm(g[1::2, 0::2])))
        if off_blocks > SUBSPACE_TOL:
            raise SubspaceViolationError(
                f"input is {off_blocks:.3e} from the theta_Z-fixed group, "
                f"above {SUBSPACE_TOL:.3e}"
            )
        residual_norm = float(np.hypot(_norm(w[0::2, 1::2]), _norm(w[1::2, 0::2])))
        if residual_norm > SUBSPACE_TOL:
            raise SubspaceViolationError(
                f"m lies {residual_norm:.3e} from its span, above {SUBSPACE_TOL:.3e}"
            )
        w0, w1 = g[0::2, 0::2], g[1::2, 1::2]
        _check_det(_det(w0) * _det(w1), " of the last-qubit blocks")
        phases, z = _theta_x_log(w0, w1, defect)
        log_p = (z * (1j * phases)) @ z.conj().T
        # (1/2) the skew part of log P, exactly skew-Hermitian
        c = 0.25 * (log_p - log_p.conj().T)
        m = np.zeros_like(g)
        m[0::2, 0::2] = c
        m[1::2, 1::2] = -c
        return AlgebraElement(matrix=m, residual_norm=residual_norm)
    raise ValueError(
        "compute_m takes (theta_Z, ()) or (theta_X, (theta_Z,)) of one register,"
        f" got {inv} fixing {fixing}"
    )


def _theta_z_log(g: np.ndarray, checked: bool = False):
    """(m0, k0, svd): the theta_Z split g = k0 e^(m0) from one CSD.

    In the last-qubit block view g = diag(U1, U2) CS diag(V1, V2)^dag
    with CS = [[C, -S], [S, C]] (linalg._csd). theta_Z(CS) = CS^dag, so
    theta_Z(g^dag) g = V CS^2 V^dag, whose theta_Z-odd log is
    2 m0 with m0 = V [[0, -Theta], [Theta, 0]] V^dag, also where an angle
    is pi/2; and k0 = g e^(-m0) = diag(U1 V1^dag, U2 V2^dag), whose
    determinant is that of g, comes as the BlockPair of its two blocks
    and that determinant, with no 2^n matrix built. svd =
    (i V1, Theta, V2^dag) is the SVD -i Y = (i V1) Theta V2^dag of m0's
    off-diagonal block Y = m0[0::2, 1::2], Theta descending, for
    _closed_form_k. m0.residual_norm is ||g - diag(U1, U2) CS V^dag||_F.
    checked=True skips g's unitarity check.

    Raises:
        NotUnitaryError: g is not special unitary within 1e-8.
        SubspaceViolationError: the reconstruction residual exceeds
            SUBSPACE_TOL, or exceeds 1e-8 where det k0 misses 1 by more
            than 1e-8.
    """
    if not checked:
        _unitarity_defect(g)
    half = g.shape[0] // 2
    # blocks[a, b] = g[a::2, b::2]
    blocks = g.reshape(half, 2, half, 2).transpose(1, 3, 0, 2)
    (u1, u2), theta, (v1h, v2h) = _csd(blocks[0, 0], blocks[0, 1], blocks[1, 0], blocks[1, 1])
    cos, sin = np.cos(theta), np.sin(theta)
    cs = np.array((cos, -sin, sin, cos)).reshape(2, 2, 1, half)
    rebuilt = (np.array((u1, u2))[:, None] * cs) @ np.array((v1h, v2h))[None]
    residual_norm = _norm(blocks - rebuilt)
    if residual_norm > SUBSPACE_TOL:
        raise SubspaceViolationError(
            f"cosine-sine decomposition leaves {residual_norm:.3e}, "
            f"above {SUBSPACE_TOL:.3e}"
        )
    k00, k11 = u1 @ v1h, u2 @ v2h
    det = _det(k00) * _det(k11)
    # g passed its unitarity check, so where the CSD misses g by more
    # than that check allows, a determinant miss is the CSD's
    if residual_norm > _INGEST_TOL and not abs(det - 1.0) <= _INGEST_TOL:
        raise SubspaceViolationError(
            f"cosine-sine decomposition leaves {residual_norm:.3e}, above "
            f"{_INGEST_TOL:.3e}, and determinant defect {abs(det - 1.0):.3e}"
        )
    _check_det(det)
    # descending as from _svd: _closed_form_k pairs the j-th value with the
    # torus's j-th column, and _cluster_gauge clusters sorted neighbours
    order = (-theta).argsort()
    theta, v1, v2h = theta[order], v1h[order].conj().T, v2h[order]
    y = (v1 * -theta) @ v2h
    m0 = np.zeros(g.shape, dtype=complex)
    m0[0::2, 1::2] = y
    m0[1::2, 0::2] = -y.conj().T
    m0 = AlgebraElement(matrix=m0, residual_norm=residual_norm)
    return m0, BlockPair(k00, k11, det), (1j * v1, theta, v2h)


def _theta_x_log(
    w0: np.ndarray, w1: np.ndarray, defect: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(phases, z) of the theta_X log of w = diag(W0, W1), from its blocks:
    P = W1^dag W0 = z diag(e^{i phases}) z^dag from one Schur form, the
    phases in (-pi, pi] and those within 1e-9 above -pi moved up by 2 pi,
    into (pi, pi + 1e-9], which leaves e^{i phases} as it was.

    defect is w's unitarity gap, which the caller has checked; P must be
    unitary within max(Tolerances.structure 2^n, 4 defect).

    Raises:
        NotUnitaryError: P's unitarity gap exceeds that bound.
    """
    p = w1.conj().T @ w0
    log_tol = max(DEFAULT_TOLS.structure * 2 * len(p), 4.0 * defect)
    p_defect = _unitarity_gap(p)
    if p_defect > log_tol:
        raise NotUnitaryError(
            f"unitarity defect {p_defect:.3e} exceeds {log_tol:.3e}"
        )
    t, z = _schur(p)
    eig = t.diagonal()
    # np.angle's own formula
    phases = np.arctan2(eig.imag, eig.real)
    phases[phases <= _MINUS_ONE_BRANCH - np.pi] += 2 * np.pi
    return phases, z


def residual_k(g: np.ndarray, m: AlgebraElement) -> np.ndarray:
    """The involution-fixed cofactor g exp(-m) of the stage split."""
    return np.asarray(g, dtype=complex) @ expm_skew(-as_matrix(m))


def _stage_figures(xt: np.ndarray, torus: CartanTorus, block: bool = False):
    """(c, p, residual_norm, rel, es) of x = Q x~ Q^dag against the torus.

    With d = Im diag(x~), the projection of x onto the torus's span has
    coordinates c = (2 / 2^n) signs d in the torus's canonical order and
    is Q (i diag(p)) Q^dag with p = (1/2) signs^T c; residual_norm is
    ||x~ - i diag(p)||_F, the distance of x from the span. rel is the
    relative commutator ||[v, x]|| / (||v|| ||x||), from
    [v, x]~_ab = i (mu_a - mu_b) x~_ab, or 0 for x = 0; es is
    commutation_defect(x, words), from
    sum_w ||[w, x]||^2 = sum_ab C_ab |x~_ab|^2 (CartanTorus.es_weights).
    The three norms come from one product of |x~|^2 with the torus's
    figure_weights. residual_norm^2 is the off-diagonal sum plus
    ||diag(x~) - i p||^2, not ||x~||^2 - ||p||^2, whose cancellation
    would lose the residuals near rounding that trees record.

    block=True takes the F-torus block x~ = U^dag X U of an
    x = diag(X, -X) in the last-qubit block view: it reads the rows
    signs[:, 0::2], mu[0::2] and es_weights[0::2, 0::2]
    (CartanTorus.block_figures) and returns the block of p; c is unchanged.
    Each norm doubles its square on the whole register, so rel is the
    block ratio divided by sqrt(2), and es and residual_norm are sqrt(2)
    times the block's.
    """
    if block:
        signs, mu, weights = torus.block_figures
    else:
        signs, mu, weights = torus.signs, torus.mu, torus.figure_weights
    d = xt.diagonal()
    c = (2.0 / len(xt)) * (signs @ d.imag)
    p = 0.5 * (c @ signs)
    gap2, es2, off2, total2 = (weights @ (xt * xt.conj()).real.ravel()).tolist()
    on_diagonal = d - 1j * p
    residual_norm = math.sqrt(off2 + _vdot(on_diagonal, on_diagonal).real)
    rel = math.sqrt(gap2 / total2) / math.sqrt(mu @ mu) if total2 > 0.0 else 0.0
    es = math.sqrt(es2) / len(torus.labels)
    if block:
        return c, p, _SQRT2 * residual_norm, rel / _SQRT2, _SQRT2 * es
    return c, p, residual_norm, rel, es


def _off_span(norm: float, diagonal: np.ndarray) -> bool:
    """Whether an x~ of norm above Tolerances.structure, with this
    diagonal, is too far off the span for the in-span pretest to pass:
    its squared residual is at least norm^2 - ||diagonal||^2."""
    norm2 = norm * norm
    return (
        norm > DEFAULT_TOLS.structure
        and norm2 - _vdot(diagonal, diagonal).real > _OFF_SPAN_SHARE * norm2
    )


def _phases_match(p: np.ndarray, spectrum: np.ndarray) -> bool:
    """_cyclic_phase_mismatch of the wrapped p and the sorted spectrum,
    in (-pi, pi] already, within 1e-8.

    The identity alignment of the two sorted lists decides first: the
    minimum over cyclic alignments is at most its value, so only a miss
    there, as where values straddle the branch cut at pi, runs every
    alignment, and the decision is the same either way.
    """
    a, b = _wrapped_phases(p), spectrum
    gaps = np.abs((a - b + np.pi) % (2 * np.pi) - np.pi)
    if np.maximum.reduce(gaps) <= _SPECTRUM_TOL:
        return True
    return _cyclic_phase_mismatch(a, b) <= _SPECTRUM_TOL


def _cluster_gauge(overlap: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The block-diagonal unitary R that best aligns the solve's vectors
    with the torus basis: on each cluster of equal values (sorted
    neighbours within 1e-13 max |values|), the polar factor that
    maximizes Re tr(overlap R) on the cluster.

    On a cluster of one value, the only kind a generic stage has, that
    polar factor of the 1 x 1 overlap o is conj(o) / |o|, or 1 where
    o = 0: the whole diagonal is set so by one masked division. One
    comparison of the gaps between sorted neighbours tells whether any
    cluster holds two or more values; only then are the clusters cut
    out, and each such cluster takes an SVD, which overwrites its block.
    """
    o = overlap.diagonal()
    size = len(o)
    diagonal = np.empty(size, dtype=complex)
    diagonal.fill(1.0)
    np.divide(o.conj(), np.abs(o), out=diagonal, where=o != 0)
    rotation = np.zeros((size, size), dtype=complex)
    rotation.flat[:: size + 1] = diagonal
    # relative, so that a stage input of any norm keeps its distinct
    # values apart; a zero stage input never gets here
    tol = _CLUSTER_TOL * np.maximum.reduce(np.abs(values))
    apart = np.abs(values[1:] - values[:-1]) > tol
    # a gap within tol: some cluster holds two or more values
    if not np.logical_and.reduce(apart):
        cuts = np.flatnonzero(apart) + 1
        bounds = np.concatenate(([0], cuts, [len(values)]))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if stop - start > 1:
                w, _, zh = _svd(overlap[start:stop, start:stop])
                rotation[start:stop, start:stop] = zh.conj().T @ w.conj().T
    return rotation


def _closed_form_k(
    m0_mat: np.ndarray, torus: CartanTorus, svd
) -> Tuple[np.ndarray, BlockPair]:
    """(K, its BlockPair): the K = diag(A, B) in SU(2^n) that conjugates
    m0 into the span of the torus's H_n set (the theta_Z stage; the F_n
    stage is _f_rotation).

    With U = torus.u the joint eigenbasis of W, m0 is [[0, Y], [-Y^dag, 0]]
    in the last-qubit block view; the SVD -i Y = V1 S V2^dag, given as
    svd = (V1, S, V2^dag) with S descending, gives
    A = V1 U^dag, B = V2 U^dag, and A^dag Y B = i U S U^dag. Within each
    cluster of equal singular values the columns of V1 and V2 are free
    up to one common unitary R; R is _cluster_gauge's polar factor of
    U^dag (V1 + V2) on the cluster, which keeps K closest to I and makes
    it continuous in m0 where the values are distinct. K is scaled by
    e^(-i arg det K / 2^n) so that det K = 1. In the torus basis Q that
    U builds, (K Q)^dag m0 (K Q) is then diagonal up to rounding:
    _minimize_full reads the stage off that one rotation. The BlockPair
    holds the scaled A and B and det K, computed from the unscaled
    det A det B and the scale, not taken again.
    """
    u_dag = torus.u_dag
    v1, values, v2h = svd
    v2 = v2h.conj().T
    rotation = _cluster_gauge(u_dag @ (v1 + v2), values)
    a, b = v1 @ rotation @ u_dag, v2 @ rotation @ u_dag
    half = len(a)
    det = _det(a) * _det(b)
    turn = cmath.exp(-1j * cmath.phase(det) / (2 * half))
    a, b = turn * a, turn * b
    k = np.zeros((2 * half, 2 * half), dtype=complex)
    k[0::2, 0::2] = a
    k[1::2, 1::2] = b
    # det(turn A) det(turn B) = turn^(2 half) det A det B
    return k, BlockPair(a, b, det * turn ** (2 * half))


def _minimize_full(m0, torus: CartanTorus, svd) -> CartanSolve:
    """Conjugates m0 into the Cartan span over the stage's subgroup exp(k).

    The theta_Z stage's solve, against the H_n torus. K1 is
    _closed_form_k's, from the SVD svd = (V1, S, V2^dag) of -i times
    m0's off-diagonal block Y = m0[0::2, 1::2], S descending, that the
    stage's CSD gives (_theta_z_log), or I when m0 already lies within
    1e-12 ||m0|| of the span, a pretest skipped where the diagonal of
    Q^dag m0 Q rules it out (_off_span). Everything else is read off one
    rotation x~ = P^dag m0 P with P = K1 Q, where Q is the basis of the
    torus (basis.cartan_torus) in which every Cartan word is diagonal:
    the coordinates, the off-span residual, the relative commutator
    ||[v, h]|| / (||v|| ||h||) and E_s, all from one weighted sum
    (_stage_figures), and p with h = Q (i diag(p)) Q^dag. The solution
    is checked once: the relative commutator must be at most CARTAN_TOL,
    the residual at most SUBSPACE_TOL, and exp(h) must share the
    eigenphases of exp(m0) within 1e-8 (h is only determined up to its
    Weyl orbit). Those of exp(h) are p wrapped into (-pi, pi], those of
    exp(m0) are +-S, compared over cyclic alignments (_phases_match); no
    exponential is built. An m0 of norm at most Tolerances.structure
    counts as zero: K1 = I, h = 0, whatever svd holds.

    Returns the CartanSolve of k1 and h; h's matrix is not built, and
    k1 comes also as its BlockPair, for the level's theta_X stages.

    Raises:
        OptimizerFailedError: the solution fails a bound; its (k1, h)
            pair rides in the error's `best` attribute.
    """
    m0_mat = as_matrix(m0)
    q = torus.q
    norm_m0 = _norm(m0_mat)
    left = torus.q_dag @ m0_mat
    figures = None
    if not _off_span(norm_m0, np.add.reduce(left * q.T, axis=1)):
        figures = _stage_figures(left @ q, torus)
        if norm_m0 <= DEFAULT_TOLS.structure:
            k1, p = np.eye(len(m0_mat), dtype=complex), np.zeros(len(q))
            blocks = _identity_pair(len(m0_mat) // 2)
            coords = (0.0,) * len(torus.labels)
            return CartanSolve(k1, blocks, p, coords, norm_m0, figures[4])
    if figures is None or figures[2] > _IN_SPAN_TOL * norm_m0:
        k1, blocks = _closed_form_k(m0_mat, torus, svd)
        frame = k1 @ q
        figures = _stage_figures(frame.conj().T @ m0_mat @ frame, torus)
    else:
        k1, blocks = np.eye(len(m0_mat), dtype=complex), _identity_pair(len(m0_mat) // 2)
    c, p, residual_norm, rel, es = figures
    # the CS angles lie in [0, pi/2], descending
    spectrum = _concatenate((-svd[1], svd[1][::-1]))
    solve = CartanSolve(k1, blocks, p, tuple(c.tolist()), residual_norm, es)
    if rel <= CARTAN_TOL and residual_norm <= SUBSPACE_TOL and _phases_match(p, spectrum):
        return solve
    raise OptimizerFailedError(
        f"closed-form solve left relative commutator {rel:.3e} "
        f"(bound {CARTAN_TOL:.1e}), projection residual {residual_norm:.3e}",
        best=(k1, _cartan_element(solve, torus)),
    )


def _identity_pair(half: int) -> BlockPair:
    """The BlockPair of the identity on 2 half rows, its blocks read-only."""
    eye = _identity(half)
    return BlockPair(eye, eye, 1.0)


def _cartan_element(solve: CartanSolve, torus: CartanTorus) -> AlgebraElement:
    """The solve's h = Q (i diag(p)) Q^dag in the torus basis Q, with its
    coordinates and pre-projection residual."""
    return AlgebraElement(
        matrix=(torus.q * (1j * solve.p)) @ torus.q_dag,
        coords=solve.coords,
        residual_norm=solve.residual_norm,
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
    g = np.asarray(g, dtype=complex)
    if g.shape != (inv.dim, inv.dim):
        raise DimensionMismatchError(
            f"expected shape {(inv.dim, inv.dim)}, got {g.shape}"
        )
    blocks, solve = _theta_z_stage(g, torus)
    # a level keeps k0 as its blocks; the public stage returns its matrix
    k0 = np.zeros(g.shape, dtype=complex)
    k0[0::2, 0::2] = blocks.b0
    k0[1::2, 1::2] = blocks.b1
    h = _cartan_element(solve, torus)
    return StageResult(k0, solve.k1, h, solve.subspace_error)


def _theta_z_stage(
    g: np.ndarray, torus: CartanTorus, checked: bool = False
) -> Tuple[BlockPair, CartanSolve]:
    """The theta_Z stage G = k0 k1 exp(h) k1^dag against the H_n torus:
    one CSD of g's last-qubit blocks (_theta_z_log) gives m0, k0 and the
    SVD that _minimize_full's closed form takes. Returns k0, as its
    BlockPair, and _minimize_full's solve."""
    m0, k0, svd = _theta_z_log(g, checked)
    return k0, _minimize_full(m0, torus, svd)


def extract_subunitary(k: np.ndarray, n: int) -> Tuple[np.ndarray, float]:
    """Strips the trailing identity qubit off a matrix with shape A (x) I2.

    sub' is the mean of the two stride-2 diagonal blocks, not
    re-unitarized; the global phase phi = arg(det(sub')) / 2^(n-1) is
    divided out so det(sub) = 1.

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
    cross = max(_norm(k[0::2, 1::2]), _norm(k[1::2, 0::2]))
    mismatch = _norm(even - odd)
    if max(cross, mismatch) > PATTERN_TOL:
        raise NotTensorWithIdentityError(
            f"pattern defect {max(cross, mismatch):.3e} exceeds {PATTERN_TOL:.3e}"
        )
    sub = 0.5 * (even + odd)
    phase = float(np.angle(_det(sub))) / 2 ** (n - 1)
    sub = np.exp(-1j * phase) * sub
    return sub, phase


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
    defect = _norm(residual)
    if defect > PATTERN_TOL * (1.0 + abs(alpha)):
        raise SubspaceViolationError(
            f"central-phase defect {defect:.3e} exceeds tolerance"
        )
    return expm_skew(mat[:2, :2], tol=max(DEFAULT_TOLS.structure * 2, 4.0 * defect))


def _cartan_factor(
    coords: Sequence[float], residual_norm: float, torus: CartanTorus
) -> Factor:
    """Builds a CartanExp factor from coordinates in the torus's label order."""
    return Factor(
        kind=FactorKind.CARTAN_EXP,
        level_qubits=int(torus.name[1:]),
        basis_name=torus.name,
        coeffs=tuple(zip(torus.labels, map(float, coords))),
        subspace_residual=residual_norm,
    )


def _f_rotation(
    c_hat: np.ndarray, values: np.ndarray, vecs: np.ndarray, torus: CartanTorus
) -> Tuple[np.ndarray, np.ndarray, float, float, complex]:
    """The F stage of a theta_X stage, on its 2^(n-1) block.

    m_hat = diag(C^, -C^) in the last-qubit block view, with C^ traceless
    and values, vecs the eigh of -i C^. The rotation is K1 = A (x) I with
    A = vecs R U^dag, R the _cluster_gauge of U^dag vecs, or A = I when
    m_hat lies within 1e-12 ||m_hat|| of span F_n or has norm at most
    Tolerances.structure; A is scaled by e^(-i arg det(A)^2 / 2^n), as
    K1 = A (x) I would be into SU(2^n), the pretest skipped as in
    _minimize_full. Everything is read off the block
    x~ = (A U)^dag C^ (A U) of the torus rotation, with the figures of
    the whole register (_stage_figures with block=True), and checked as
    in _minimize_full: relative commutator at most CARTAN_TOL, residual
    at most SUBSPACE_TOL, and p against the spectrum values of -i C^
    within 1e-8, both wrapped into (-pi, pi] (_phases_match).

    Returns (A, coords, residual_norm, subspace_error, det A), the
    coordinates in torus.labels order. det A is the determinant of the
    unscaled A times the scale's 2^(n-1)-th power.

    Raises:
        OptimizerFailedError: the solution fails a bound; the pair
            (A (x) I, h) rides in its `best` attribute.
    """
    u, u_dag = torus.u, torus.u_dag
    norm_m = _SQRT2 * _norm(c_hat)
    overlap = u_dag @ vecs
    figures = None
    # diag(U^dag C^ U) = i |U^dag vecs|^2 values; both norms scale by sqrt(2)
    if not _off_span(norm_m, _SQRT2 * ((overlap * overlap.conj()).real @ values)):
        figures = _stage_figures(u_dag @ c_hat @ u, torus, block=True)
        if norm_m <= DEFAULT_TOLS.structure:
            coords = np.zeros(len(torus.labels))
            return np.eye(len(c_hat), dtype=complex), coords, norm_m, figures[4], 1.0
    if figures is None or figures[2] > _IN_SPAN_TOL * norm_m:
        a = vecs @ _cluster_gauge(overlap, values) @ u_dag
        det = _det(a)
        turn = cmath.exp(-1j * cmath.phase(det * det) / (2 * len(a)))
        a = turn * a
        # det(turn A) = turn^len(A) det(A)
        det_a = det * turn ** len(a)
        frame = a @ u
        figures = _stage_figures(frame.conj().T @ c_hat @ frame, torus, block=True)
    else:
        a, det_a = np.eye(len(c_hat), dtype=complex), 1.0
    c, p, residual_norm, rel, es = figures
    if rel <= CARTAN_TOL and residual_norm <= SUBSPACE_TOL and _phases_match(p, values):
        return a, c, residual_norm, es, det_a
    h_block = (u * (1j * p)) @ u_dag
    h = np.zeros((2 * len(a), 2 * len(a)), dtype=complex)
    h[0::2, 0::2] = h_block
    h[1::2, 1::2] = -h_block
    raise OptimizerFailedError(
        f"closed-form solve left relative commutator {rel:.3e} "
        f"(bound {CARTAN_TOL:.1e}), projection residual {residual_norm:.3e}",
        best=(
            np.kron(a, np.eye(2)),
            AlgebraElement(matrix=h, coords=tuple(c.tolist()), residual_norm=residual_norm),
        ),
    )


def _secondary_stage(
    w0: np.ndarray, w1: np.ndarray, n: int, det: complex
) -> Tuple[Tuple[Factor, ...], float, float, float]:
    """The theta_X stage on one K-type input w = diag(W0, W1) of level n,
    given as its two 2^(n-1) last-qubit blocks and det = det W0 det W1.

    m = (1/2) log(theta_X(w^dag) w) is diag(C, -C) with
    exp(2C) = P = W1^dag W0; theta_X(w^dag) w itself is never formed.
    The Schur form P = V diag(e^{i t}) V^dag of _theta_x_log, sorted by t,
    gives C = V diag(i t / 2) V^dag, its central coordinate
    alpha = sum(t) / 2^(n-1) on I..IZ, and the traceless rest
    C^ = C - (i alpha / 2) I, with -i C^ = V diag(D) V^dag for
    D = (t - alpha) / 2. That one decomposition gives both the cofactor
    k = w exp(-m) = K (x) I, whose blocks are
    W0 e^(-C) = e^(-i alpha / 2) W0 V e^(-iD) V^dag and
    W1 e^(C) = e^(i alpha / 2) W1 V e^(iD) V^dag and must agree within
    PATTERN_TOL, and the F stage's closed form (_f_rotation), which
    conjugates m_hat = diag(C^, -C^) into F_n by T = A (x) I. With
    K A = e^{i phi} S and A = e^{i psi} T', both in SU(2^(n-1)),

        w = e^{i(phi - psi)} (S x I) e^f (T'^dag x I) (I x Q),

    with Q = diag(e^{i alpha/2}, e^{-i alpha/2}) the last-qubit factor.
    No 2^n matrix is built, decomposed or exponentiated.

    The blocks are checked for finite entries and by one stacked
    unitarity gap, and det, which the level carries from the factors
    that made w, against 1 within 1e-8 (" of the last-qubit blocks").
    Returns the factors (S, e^f, T'^dag, Q), phi, psi and the F stage's
    subspace error. Nothing is re-unitarized: S and T' are checked once,
    by one stacked gap ||X X^dag - I||_F.

    Raises:
        NotUnitaryError: the blocks are not unitary within 1e-8, det
            misses 1, P is not unitary (_theta_x_log), or the payload
            drift of S and T' exceeds 1e-12.
        NotTensorWithIdentityError: the two blocks of k differ beyond
            PATTERN_TOL.
    """
    torus = cartan_torus("F", n)
    defect = _unitarity_defect(np.array((w0, w1)))
    _check_det(det, " of the last-qubit blocks")
    phases, vecs = _theta_x_log(w0, w1, defect)
    # ascending as from eigh: _f_rotation pairs the j-th value with the
    # torus's j-th column, and _cluster_gauge clusters sorted neighbours
    order = phases.argsort()
    phases, vecs = phases[order], vecs[:, order]
    vecs_dag = vecs.conj().T
    half = len(vecs)
    alpha = float(np.add.reduce(phases)) / half
    values = 0.5 * (phases - alpha)
    c_hat = (vecs * (1j * values)) @ vecs_dag
    turn = np.exp(-0.5j * phases)
    even = (w0 @ vecs) * turn
    odd = (w1 @ vecs) * turn.conj()
    mismatch = _norm(even - odd)
    if mismatch > PATTERN_TOL:
        raise NotTensorWithIdentityError(
            f"pattern defect {mismatch:.3e} exceeds {PATTERN_TOL:.3e}"
        )
    k = 0.5 * (even + odd) @ vecs_dag
    a, coords, residual_norm, subspace_error, det_a = _f_rotation(
        c_hat, values, vecs, torus
    )
    outer = k @ a
    phi = cmath.phase(_det(outer)) / half
    psi = cmath.phase(det_a) / half
    sub = np.exp(-1j * phi) * outer
    inner = np.exp(-1j * psi) * a
    pair = np.array((sub, inner))
    drift = _norm(pair @ pair.conj().transpose(0, 2, 1) - _identity(half))
    if not drift <= _DRIFT_TOL:
        raise NotUnitaryError(f"payload drift {drift:.3e} exceeds {_DRIFT_TOL:.3e}")
    last = np.array([[cmath.exp(0.5j * alpha), 0], [0, cmath.exp(-0.5j * alpha)]])
    factors = (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=sub),
        _cartan_factor(coords, residual_norm, torus),
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=inner.conj().T),
        Factor(kind=FactorKind.LAST_QUBIT, level_qubits=n, matrix=last),
    )
    return factors, phi, psi, subspace_error


def _run_stage(label: str, stage, *args):
    """stage(*args), with a KgDecompError it raises named after label."""
    try:
        return stage(*args)
    except KgDecompError as exc:
        exc.stage = label
        raise


def decompose_one_level(g: np.ndarray, n: int, checked: bool = False) -> LevelResult:
    """Factors G in SU(2^n), n >= 3, into the nine-factor corollary form.

    A level is three stage calls: the theta_Z stage G = K0 K1 e^h K1^dag,
    then the theta_X stage on K0 K1 and on K1^dag. Each K-type factor is
    block-diagonal, K0 = diag(K00, K11) and K1 = diag(A, B), so the theta_X
    stages are handed the blocks (K00 A, K11 B) and (A^dag, B^dag), with
    det K0 det K1 and its conjugate carried from the theta_Z stage; no 2^n
    matrix is formed for K0 or either input. Each theta_X stage
    yields four factors and two stride-extraction phases; the phases
    aggregate into the returned scalar phi. A KgDecompError raised by a
    stage carries its label (f0[F<n>], h[H<n>] or f1[F<n>]) in its
    `stage` attribute and message. checked=True skips g's unitarity
    check, which the caller has made.
    """
    if n < 3:
        raise ValueError(f"one level requires n >= 3, got {n}")
    g = np.asarray(g, dtype=complex)
    if g.shape != (2**n, 2**n):
        raise DimensionMismatchError(f"expected shape {(2**n, 2**n)}, got {g.shape}")
    h_torus = cartan_torus("H", n)

    labels = (f"f0[F{n}]", f"h[H{n}]", f"f1[F{n}]")

    k0, solve = _run_stage(labels[1], _theta_z_stage, g, h_torus, checked)
    a, b, det_k1 = solve.k1_blocks
    left, phi0, psi1, es0 = _run_stage(
        labels[0], _secondary_stage, k0.b0 @ a, k0.b1 @ b, n, k0.det * det_k1
    )
    right, phi2, psi2, es1 = _run_stage(
        labels[2], _secondary_stage, a.conj().T, b.conj().T, n, det_k1.conjugate()
    )

    h = _cartan_factor(solve.coords, solve.residual_norm, h_torus)
    factors = left + (h,) + right
    phase = phi0 + phi2 - psi1 - psi2
    subspace_errors = tuple(zip(labels, (es0, solve.subspace_error, es1)))
    return LevelResult(factors, float(phase), subspace_errors)


def _recurse(g: np.ndarray, n: int, prefix: str) -> LevelResult:
    """Factors g in SU(2^n) down to its leaves, with labels under prefix.

    A two-qubit block is the one leaf: a SubUnitary at level 3 covering
    its whole register. Any larger block is split by decompose_one_level,
    and each of that level's SU(2^(n-1)) blocks recurses under the label
    prefix K<slot>/; child phases add into the level's phase. The blocks
    of an n = 3 level are already such leaves and are kept as they are. A
    stage error of the level gets the same prefix on its `stage` path,
    such as K2/f1[F3]. g's unitarity is not checked again: decompose_full
    checked the top level's, and each block below passed a drift check.
    """
    if n == 2:
        leaf = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=g)
        return LevelResult((leaf,), 0.0, ())
    try:
        level = decompose_one_level(g, n, checked=True)
    except KgDecompError as exc:
        if exc.stage is not None:
            exc.stage = prefix + exc.stage
        raise
    factors = []
    phase = level.phase
    subspace_errors = [(prefix + label, v) for label, v in level.subspace_errors]
    slot = 0
    for factor in level.factors:
        if factor.kind is not FactorKind.SUB_UNITARY or n == 3:
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

    phase = float(result.phase)
    approx = _norm(g - product(FactorTree(n, phase, result.factors)))
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
    return FactorTree(n, phase, result.factors, report)
