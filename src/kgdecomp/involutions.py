"""The two involutive automorphisms used by the decomposition.

Both are conjugations by a single-qubit Pauli on the last register
position: theta_Z(A) = (I..I (x) Z) A (I..I (x) Z) and likewise for X.
Conjugation by a Hermitian unitary is simultaneously a Lie-algebra
automorphism and a group automorphism, and squares to the identity, so
su(2^n) splits into +1/-1 eigenspaces (the k and m sets of the basis
module) and exp(k) is fixed pointwise while exp(m) maps to its inverse.
No conjugator matrix is built (see `AxisInvolution.apply`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, SubspaceViolationError

__all__ = ["AxisInvolution"]


@lru_cache(maxsize=None)
def _z_signs(dim: int) -> np.ndarray:
    """s_i s_j for the diagonal s = (1, -1, 1, -1, ...) of I..IZ."""
    s = np.tile([1.0, -1.0], dim // 2)
    out = np.outer(s, s)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _z_even_mask(dim: int) -> np.ndarray:
    """The 0/1 entry mask of (1 + theta_Z) / 2."""
    out = 0.5 * (1.0 + _z_signs(dim))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _x_index(dim: int):
    """np.ix_ of the index swap (2j, 2j+1) that I..IX performs."""
    perm = np.arange(dim).reshape(-1, 2)[:, ::-1].ravel()
    perm.setflags(write=False)
    return np.ix_(perm, perm)


@dataclass(frozen=True)
class AxisInvolution:
    """Conjugation by I^(n-1) (x) sigma_axis, axis in {Z, X}."""

    n: int
    axis: str

    def __post_init__(self):
        if self.axis not in ("Z", "X"):
            raise ValueError(f"axis must be Z or X, got {self.axis!r}")

    @property
    def dim(self) -> int:
        return 2**self.n

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Conjugates a by the involution's Pauli, C a C.

        I..IZ is diagonal with s = (1, -1, 1, -1, ...), so entry (i, j) is
        multiplied by s_i s_j; I..IX swaps each index pair (2j, 2j+1), so
        rows and columns 2j and 2j+1 trade places. Both index tables are
        cached per dimension.

        Raises:
            DimensionMismatchError: if a is not 2^n x 2^n.
        """
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected shape {(self.dim, self.dim)}, got {a.shape}"
            )
        if self.axis == "Z":
            return a * _z_signs(self.dim)
        return a[_x_index(self.dim)]

    def even_part(self, a: np.ndarray) -> np.ndarray:
        """The fixed part (a + theta(a)) / 2 of a 2^n x 2^n array, unchecked.

        For theta_Z this is one multiply by a cached 0/1 mask; for theta_X
        one cached index permutation.
        """
        if self.axis == "Z":
            return a * _z_even_mask(self.dim)
        return 0.5 * (a + a[_x_index(self.dim)])

    def odd_reflection(self, v: np.ndarray) -> np.ndarray:
        """A Hermitian J with J^2 = V V^dag and theta(J) = -J.

        V holds orthonormal columns spanning a subspace E that the
        conjugating Pauli C maps to itself; i pi J is then a theta-odd
        logarithm of -1 on E, where i pi V V^dag is theta-even.

        - theta_Z: E splits by the sign of V^dag Z V into halves A and B,
          and J = A B^dag + B A^dag, which Z anticommutes with.
        - theta_X: J = V (V^dag Z V) V^dag with Z = I..IZ. When E is also
          Z-invariant, as it is for a group element fixed by theta_Z, J is
          Z P_E, which X anticommutes with and which stays theta_Z-even.

        Raises:
            SubspaceViolationError: under theta_Z, the halves differ in size.
        """
        s = np.tile([1.0, -1.0], self.dim // 2)
        z_on_e = v.conj().T @ (s[:, None] * v)
        if self.axis == "X":
            return v @ z_on_e @ v.conj().T
        signs, rot = np.linalg.eigh(0.5 * (z_on_e + z_on_e.conj().T))
        half_b = int(np.count_nonzero(signs < 0.0))
        if 2 * half_b != len(signs):
            raise SubspaceViolationError(
                f"the -1 eigenspace splits {len(signs) - half_b}/{half_b} "
                "under I..IZ, so it has no theta_Z-odd logarithm of -1"
            )
        b = v @ rot[:, :half_b]
        a = v @ rot[:, half_b:]
        pair = a @ b.conj().T
        return pair + pair.conj().T
