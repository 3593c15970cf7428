"""The two involutive automorphisms used by the decomposition.

Both are conjugations by a single-qubit Pauli on the last register
position: theta_Z(A) = (I..I (x) Z) A (I..I (x) Z) and likewise for X.
Conjugation by a Hermitian unitary is simultaneously a Lie-algebra
automorphism and a group automorphism, and squares to the identity, so
su(2^n) splits into +1/-1 eigenspaces (the k and m sets of the basis
module) and exp(k) is fixed pointwise while exp(m) maps to its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

__all__ = ["AxisInvolution"]


def _conjugator(n: int, axis: str) -> np.ndarray:
    sigma = {
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
    }[axis]
    return np.kron(np.eye(2 ** (n - 1), dtype=complex), sigma)


@dataclass(frozen=True)
class AxisInvolution:
    """Conjugation by I^(n-1) (x) sigma_axis, axis in {Z, X}."""

    n: int
    axis: str
    conjugator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.axis not in ("Z", "X"):
            raise ValueError(f"axis must be Z or X, got {self.axis!r}")
        object.__setattr__(self, "conjugator", _conjugator(self.n, self.axis))

    @property
    def dim(self) -> int:
        return 2**self.n

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Conjugates a by the involution's Pauli, C a C.

        The Z conjugator is diagonal with +-1 entries and the X one is a
        pair-swap permutation, so both paths avoid dense matmuls; the
        result is identical to conjugator @ a @ conjugator.

        Raises:
            DimensionMismatchError: if a is not 2^n x 2^n.
        """
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected shape {(self.dim, self.dim)}, got {a.shape}"
            )
        if self.axis == "Z":
            signs = np.diagonal(self.conjugator).real
            return a * np.outer(signs, signs)
        perm = np.arange(self.dim).reshape(-1, 2)[:, ::-1].ravel()
        return a[np.ix_(perm, perm)]
