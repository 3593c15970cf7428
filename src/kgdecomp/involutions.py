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

import numpy as np

from .errors import DimensionMismatchError

__all__ = ["AxisInvolution"]


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
        rows and columns 2j and 2j+1 trade places.

        Raises:
            DimensionMismatchError: if a is not 2^n x 2^n.
        """
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected shape {(self.dim, self.dim)}, got {a.shape}"
            )
        if self.axis == "Z":
            signs = np.tile([1.0, -1.0], self.dim // 2)
            return a * np.outer(signs, signs)
        perm = np.arange(self.dim).reshape(-1, 2)[:, ::-1].ravel()
        return a[np.ix_(perm, perm)]
