"""Dense complex linear algebra backbone.

Exponentials of skew-Hermitian matrices, principal logarithms of
unitaries, projections onto spans of distinct Pauli words of one length
(trace-orthogonal by construction), and repair of nearly special-unitary
matrices. Everything here is a pure function; matrices are complex128.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

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

_MINUS_ONE_CLUSTER = 1e-9


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
    if np.linalg.norm(a + a.conj().T) > tol:
        raise NotSkewHermitianError(
            f"skewness defect {np.linalg.norm(a + a.conj().T):.3e} exceeds {tol:.3e}"
        )
    h = -1j * a
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def expm_skew_many(stack: np.ndarray) -> np.ndarray:
    """Batched expm_skew on a (..., N, N) stack; no skewness check."""
    h = -1j * stack
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def logm_unitary(
    u: np.ndarray,
    tol: Optional[float] = None,
    odd_branch: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Principal logarithm of a unitary matrix, or a chosen branch at -1.

    Diagonalizes u through a complex Schur form (exactly unitary basis, so
    the result is skew-Hermitian by construction), takes the argument of
    each unit-modulus eigenvalue in (-pi, pi], and returns V (i args) V^dag.

    Args:
        u: unitary matrix.
        tol: unitarity tolerance (default structure tol * dim).
        odd_branch: maps the Schur vectors V of the eigenvalues within
            1e-9 of -1 to a Hermitian J with J^2 = V V^dag; the log is
            then i pi J on that cluster instead of the principal branch,
            and the cluster raises no warning.

    Raises:
        NotUnitaryError: if ||u u^dag - I||_F exceeds tol.

    Warns:
        BranchAmbiguityWarning: if any eigenvalue lies within 1e-8 of -1
        and outside a cluster that odd_branch resolved, where the
        principal branch choice is ambiguous.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if tol is None:
        tol = DEFAULT_TOLS.structure * n
    if np.linalg.norm(u @ u.conj().T - np.eye(n)) > tol:
        raise NotUnitaryError(
            f"unitarity defect {np.linalg.norm(u @ u.conj().T - np.eye(n)):.3e} "
            f"exceeds {tol:.3e}"
        )
    t, z = scipy.linalg.schur(u, output="complex")
    eig = np.diagonal(t)
    distance = np.abs(eig + 1.0)
    cluster = (distance < _MINUS_ONE_CLUSTER) & (odd_branch is not None)
    if np.any((distance < 1e-8) & ~cluster):
        warnings.warn(
            "eigenvalue within 1e-8 of -1; principal log branch is ambiguous",
            BranchAmbiguityWarning,
            stacklevel=2,
        )
    rest = z[:, ~cluster]
    out = (rest * (1j * np.angle(eig[~cluster]))) @ rest.conj().T
    if cluster.any():
        out += 1j * np.pi * odd_branch(z[:, cluster])
    return out


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
    u_svd, s, vh = np.linalg.svd(a)
    if s[-1] < 1e-12:
        raise SingularMatrixError(f"smallest singular value {s[-1]:.3e} below 1e-12")
    polar = u_svd @ vh
    phase = float(np.angle(np.linalg.det(polar)))
    u = polar * np.exp(-1j * phase / n)
    return u, phase


def su_defects(u: np.ndarray) -> Tuple[float, float]:
    """(||u u^dag - I||_F, |det u - 1|), both zero exactly when u is in SU(N)."""
    u = as_matrix(u)
    unitarity = float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])))
    return unitarity, float(abs(np.linalg.det(u) - 1.0))


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


def eigenphase_mismatch(u1: np.ndarray, u2: np.ndarray) -> float:
    """Distance between the eigenphase multisets of two unitaries.

    Compares the angle-sorted spectra on the unit circle over all cyclic
    alignments, so values straddling the branch cut at pi match correctly.
    Returns the smallest max absolute phase difference.
    """
    p1 = np.sort(np.angle(np.linalg.eigvals(as_matrix(u1))))
    p2 = np.sort(np.angle(np.linalg.eigvals(as_matrix(u2))))
    n = len(p1)
    # row s holds np.roll(p2, s)
    shifted = p2[(np.arange(n) - np.arange(n)[:, None]) % n]
    d = np.abs((p1 - shifted + np.pi) % (2 * np.pi) - np.pi)
    return float(np.min(np.max(d, axis=1)))
