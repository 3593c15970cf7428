"""Dense complex linear algebra backbone.

Exponentials of skew-Hermitian matrices, principal logarithms of
unitaries, projections onto spans of distinct Pauli words of one length
(trace-orthogonal by construction), and repair of nearly special-unitary
matrices. Everything here is a pure function; matrices are complex128.

The small dense decompositions that the stages take on one matrix at a
time (_eigh, _svd, _schur, _det, and _csd on the four blocks of one
matrix) call their LAPACK routines directly, without numpy's or scipy's
per-call argument handling and workspace queries, and so does _eigvalsh,
which no stage takes any more; _norm is the Frobenius norm of any array,
from numpy's C vdot. Only the stacked exponential expm_skew_many keeps
numpy's batched eigh. _newton_polish, the Newton step that the
closed-form stages replaced, is kept only as a benchmark span target.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg.lapack

from .basis import PauliWord, word_stack
from .config import DEFAULT_TOLS
from .errors import (
    BranchAmbiguityWarning,
    DimensionMismatchError,
    NotSkewHermitianError,
    NotUnitaryError,
    SingularMatrixError,
)

__all__ = [
    "AlgebraElement",
    "as_matrix",
    "expm_skew",
    "logm_unitary",
    "project_onto_span",
    "nearest_special_unitary",
    "su_defects",
    "commutation_defect",
    "eigenphase_mismatch",
]

_ZHEEVD = scipy.linalg.lapack.zheevd
_ZGESDD = scipy.linalg.lapack.zgesdd
_ZGEES = scipy.linalg.lapack.zgees
_ZGETRF = scipy.linalg.lapack.zgetrf
_ZUNCSD = scipy.linalg.lapack.zuncsd

# numpy's C vdot and concatenate, without the Python-level dispatcher
# that np.vdot and np.concatenate run on every call. __wrapped__ is how
# numpy 2.x exposes them, not a documented API; without it the public
# names keep every result the same, and
# test_vdot_and_concatenate_skip_numpy_dispatchers fails
_vdot = getattr(np.vdot, "__wrapped__", np.vdot)
_concatenate = getattr(np.concatenate, "__wrapped__", np.concatenate)


def _no_select(_value):
    """The eigenvalue selector zgees requires; unused, nothing is sorted."""
    return None


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned info={info}")


def _eigh(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(w, v) with a = v diag(w) v^dag, w ascending, from the lower
    triangle of the Hermitian a (zheevd), as np.linalg.eigh.

    Raises:
        np.linalg.LinAlgError: the routine did not converge.
    """
    w, v, info = _ZHEEVD(a, lower=1)
    _check_info(info, "zheevd")
    return w, v


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of the Hermitian a, from its lower
    triangle (zheevd without vectors), as np.linalg.eigvalsh.

    Raises:
        np.linalg.LinAlgError: the routine did not converge.
    """
    w, _, info = _ZHEEVD(a, compute_v=0, lower=1)
    _check_info(info, "zheevd")
    return w


def _svd(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, s, vh) with a = u diag(s) vh, s descending (zgesdd, full
    matrices), as np.linalg.svd.

    Raises:
        np.linalg.LinAlgError: the routine did not converge.
    """
    u, s, vh, info = _ZGESDD(a)
    _check_info(info, "zgesdd")
    return u, s, vh


def _schur(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(t, z) with a = z t z^dag, t upper triangular and z unitary: the
    complex Schur form (zgees), eigenvalues in the routine's order.

    Raises:
        np.linalg.LinAlgError: the routine did not converge.
    """
    t, _, _, z, _, info = _ZGEES(_no_select, a, sort_t=0)
    _check_info(info, "zgees")
    return t, z


def _csd(x11, x12, x21, x22):
    """((u1, u2), theta, (v1h, v2h)) with [[x11, x12], [x21, x22]] =
    diag(u1, u2) [[C, -S], [S, C]] diag(v1h, v2h), C = diag(cos theta),
    S = diag(sin theta) and theta in [0, pi/2]: the cosine-sine
    decomposition of a unitary with four square blocks of one size
    (zuncsd), as scipy.linalg.cossin(..., separate=True). The angles come
    in the routine's order, which is not guaranteed to be sorted.

    Raises:
        np.linalg.LinAlgError: the routine did not converge.
    """
    *_, theta, u1, u2, v1h, v2h, info = _ZUNCSD(x11, x12, x21, x22)
    _check_info(info, "zuncsd")
    return (u1, u2), theta, (v1h, v2h)


def _det(a: np.ndarray) -> complex:
    """det a from its LU factorization (zgetrf): the product of U's
    diagonal, negated for an odd number of row swaps. A positive info
    marks an exactly zero pivot, where that product is 0.

    Raises:
        np.linalg.LinAlgError: the routine refused its arguments.
    """
    lu, piv, info = _ZGETRF(a)
    if info < 0:
        _check_info(info, "zgetrf")
    det = math.prod(lu.diagonal().tolist())
    # piv is 0-based: row i was swapped with row piv[i]
    swaps = sum(map(operator.ne, piv.tolist(), range(len(piv))))
    return -det if swaps % 2 else det


def _norm(x: np.ndarray) -> float:
    """The Frobenius (or, for a vector, Euclidean) norm of x."""
    return math.sqrt(_vdot(x, x).real)


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """The read-only complex identity of one size, built once."""
    eye = np.eye(dim, dtype=complex)
    eye.setflags(write=False)
    return eye


def _unitarity_gap(u: np.ndarray) -> float:
    """||u u^dag - I||_F of a square u, or over a stack of square blocks,
    the root sum of their squared gaps."""
    return _norm(u @ u.conj().swapaxes(-1, -2) - _identity(u.shape[-1]))


@dataclass(frozen=True)
class AlgebraElement:
    """A member of su(2^n), optionally with coordinates in a span.

    Attributes:
        matrix: skew-Hermitian traceless complex matrix.
        coords: real coefficients on the words of its span, or None
            where it was snapped without a word basis (engine.compute_m).
        residual_norm: distance from the raw element to the span; for
            snap-to-span repaired elements this records the pre-repair
            defect while `matrix` already equals the projection.
    """

    matrix: np.ndarray
    coords: Optional[Tuple[float, ...]] = None
    residual_norm: Optional[float] = None


def as_matrix(a) -> np.ndarray:
    """The complex square matrix of a, which is an AlgebraElement or array-like.

    Raises:
        DimensionMismatchError: if a is not a square matrix.
    """
    if isinstance(a, AlgebraElement):
        a = a.matrix
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def expm_skew(a, tol: Optional[float] = None) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, via Hermitian eigendecomposition.

    Writes a = i H with H Hermitian, diagonalizes H = V diag(w) V^dag and
    returns V diag(exp(i w)) V^dag, which is unitary by construction.

    Args:
        a: skew-Hermitian matrix or AlgebraElement.
        tol: skewness tolerance (default structure tol * dim).

    Raises:
        NotSkewHermitianError: if ||a + a^dag||_F exceeds tol.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if tol is None:
        tol = DEFAULT_TOLS.structure * n
    skewness = _norm(a + a.conj().T)
    if skewness > tol:
        raise NotSkewHermitianError(
            f"skewness defect {skewness:.3e} exceeds {tol:.3e}"
        )
    h = -1j * a
    h = 0.5 * (h + h.conj().T)
    w, v = _eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def expm_skew_many(stack: np.ndarray) -> np.ndarray:
    """Batched expm_skew on a (..., N, N) stack; no skewness check."""
    h = -1j * stack
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def logm_unitary(u: np.ndarray, tol: Optional[float] = None) -> np.ndarray:
    """Principal logarithm of a unitary matrix.

    Diagonalizes u through a complex Schur form (exactly unitary basis, so
    the result is skew-Hermitian by construction), takes the argument of
    each unit-modulus eigenvalue in (-pi, pi], and returns V (i args) V^dag.

    Args:
        u: unitary matrix.
        tol: unitarity tolerance (default structure tol * dim).

    Raises:
        NotUnitaryError: if ||u u^dag - I||_F exceeds tol.

    Warns:
        BranchAmbiguityWarning: if any eigenvalue lies within 1e-8 of -1,
        where the principal branch choice is ambiguous.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if tol is None:
        tol = DEFAULT_TOLS.structure * n
    defect = _unitarity_gap(u)
    if defect > tol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {tol:.3e}")
    t, z = _schur(u)
    eig = np.diagonal(t)
    if np.any(np.abs(eig + 1.0) < 1e-8):
        warnings.warn(
            "eigenvalue within 1e-8 of -1; principal log branch is ambiguous",
            BranchAmbiguityWarning,
            stacklevel=2,
        )
    return (z * (1j * np.angle(eig))) @ z.conj().T


def project_onto_span(
    x: np.ndarray, words: Sequence[PauliWord]
) -> Tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection of x onto the real span of distinct Pauli words.

    Uses the real inner product <a, b> = Re tr(a^dag b). The words must be
    distinct and of one length n, which makes them pairwise
    trace-orthogonal with <w, w> = 2^(n-2) (see basis.word_stack).

    Args:
        x: matrix or AlgebraElement to project.
        words: ordered Pauli words, distinct and of one length.

    Returns:
        (coords, residual) with coords[i] = <w_i, x>/<w_i, w_i> and
        residual = x - sum_i coords[i] w_i, trace-orthogonal to every w_i.

    Raises:
        NonOrthogonalBasisError: a word repeats or the lengths differ.
    """
    x = as_matrix(x)
    stack = word_stack(words)
    norm2 = stack.shape[-1] / 4.0
    coords = np.einsum("aji,ji->a", stack.conj(), x).real / norm2
    residual = x - np.tensordot(coords, stack, axes=1)
    return coords, residual


def nearest_special_unitary(a: np.ndarray) -> Tuple[np.ndarray, float]:
    """Closest unitary to a (polar factor), det-normalized into SU(N).

    Computes the polar unitary U V^dag from the SVD a = U S V^dag, then
    multiplies by exp(-i phi / N) with phi = arg det(U V^dag) so the result
    has determinant exactly one.

    Args:
        a: invertible square matrix.

    Returns:
        (u, phase) with u in SU(N) and phase = phi for diagnostics.

    Raises:
        SingularMatrixError: if the smallest singular value is below 1e-12.
    """
    a = as_matrix(a)
    n = a.shape[0]
    u_svd, s, vh = _svd(a)
    if s[-1] < 1e-12:
        raise SingularMatrixError(f"smallest singular value {s[-1]:.3e} below 1e-12")
    polar = u_svd @ vh
    phase = float(np.angle(_det(polar)))
    u = polar * np.exp(-1j * phase / n)
    return u, phase


def su_defects(u: np.ndarray) -> Tuple[float, float]:
    """(||u u^dag - I||_F, |det u - 1|), both zero exactly when u is in SU(N)."""
    u = as_matrix(u)
    unitarity = _unitarity_gap(u)
    return unitarity, float(abs(_det(u) - 1.0))


def commutation_defect(x: np.ndarray, words: Sequence[PauliWord]) -> float:
    """(1/q) sqrt(sum_i ||[x, w_i]||_F^2) over q distinct words of one length.

    Zero iff x commutes with every word; the subspace-error metric is
    this quantity evaluated against a Cartan basis.

    Raises:
        NonOrthogonalBasisError: a word repeats or the lengths differ.
    """
    x = as_matrix(x)
    stack = word_stack(words)
    comms = stack @ x - x @ stack
    total = float(np.sum(np.abs(comms) ** 2))
    return np.sqrt(total) / len(stack)


@lru_cache(maxsize=None)
def _roll_index(n: int) -> np.ndarray:
    """The read-only (n, n) index whose row s takes a list to np.roll(list, s)."""
    index = (np.arange(n) - np.arange(n)[:, None]) % n
    index.setflags(write=False)
    return index


def _cyclic_phase_mismatch(p1: np.ndarray, p2: np.ndarray) -> float:
    """Smallest max |p1 - p2| over cyclic alignments of two sorted phase
    lists in (-pi, pi], with differences taken mod 2 pi, so that values
    straddling the branch cut at pi match correctly. Row 0 of the
    alignments is the identity one."""
    shifted = p2[_roll_index(len(p1))]
    d = np.abs((p1 - shifted + np.pi) % (2 * np.pi) - np.pi)
    return float(d.max(axis=1).min())


def _wrapped_phases(lam: np.ndarray) -> np.ndarray:
    """The real angles lam wrapped into (-pi, pi] by angle(exp(i lam)), sorted."""
    z = np.exp(1j * lam)
    # np.angle's own formula
    phases = np.arctan2(z.imag, z.real)
    phases.sort()
    return phases


def eigenphase_mismatch(u1: np.ndarray, u2: np.ndarray) -> float:
    """Distance between the eigenphase multisets of two unitaries.

    Compares the angle-sorted spectra on the unit circle over all cyclic
    alignments, so values straddling the branch cut at pi match correctly.
    Returns the smallest max absolute phase difference.
    """
    p1 = np.sort(np.angle(np.linalg.eigvals(as_matrix(u1))))
    p2 = np.sort(np.angle(np.linalg.eigvals(as_matrix(u2))))
    return _cyclic_phase_mismatch(p1, p2)


_POLISH_TARGET = 1e-13


# The decomposition never calls _newton_polish, the step the closed-form
# stages replaced. It stays, with its direct tests, because
# perfbench/spans.py patches kgdecomp.engine._newton_polish and
# tests/test_trace_targets.py requires every span target to exist.
def _newton_polish(
    k1: np.ndarray,
    m0_mat: np.ndarray,
    torus: Tuple[np.ndarray, np.ndarray],
    fixing: Sequence,
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
    (1 + theta) / 2 (AxisInvolution.even_part) of the involutions in
    fixing, whose common fixed algebra is k. A step longer than 1 in
    word coordinates, ||delta||_F / sqrt(2^n / 4), is clipped to unit
    length, and a zero step ends the start. Takes at most max_steps
    steps and evaluates every iterate, the last one included. Returns
    the best iterate, its relative commutator ||[v,h]|| / (||v|| ||h||),
    and the number of steps taken.
    """
    mu, basis = torus
    basis_dag = basis.conj().T
    word_norm = np.sqrt(basis.shape[0] / 4.0)
    v_gaps = mu[:, None] - mu[None, :]
    norm_v = _norm(mu)
    best_k, best_rel = k1, np.inf
    for steps in range(max_steps + 1):
        kb = k1 @ basis
        h = kb.conj().T @ m0_mat @ kb
        # exactly skew-Hermitian, or a tiny gap would magnify the rounding
        # into a non-skew step
        h = 0.5 * (h - h.conj().T)
        rel = _norm(v_gaps * h) / (norm_v * _norm(h) + 1e-300)
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
        step_norm = _norm(delta) / word_norm
        if not np.isfinite(step_norm) or step_norm == 0.0:
            break
        if step_norm > 1.0:
            delta = delta / step_norm
        k1 = k1 @ expm_skew(delta)
    return best_k, best_rel, steps
