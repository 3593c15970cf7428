"""Numerical tolerances: fixed acceptance bounds plus the settable E_a bound.

The involution logarithms are exact, so the stage bounds below are
acceptance checks rather than tuning parameters; only the reconstruction
bound that `decompose_full` and `kgdecomp verify` apply can be set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

CARTAN_TOL = 1e-8
"""Relative commutator bound ||[h, v]|| / (||h|| ||v||) that a Cartan
stage's closed-form solution must meet, with v the stage's regular torus
generator."""

SUBSPACE_TOL = 1e-3
"""Largest projection residual that snap-to-span repair will absorb;
anything bigger fails loudly."""

PATTERN_TOL = 1e-8
"""Allowed deviation from required block patterns (tensor with identity,
single Z word)."""


@dataclass(frozen=True)
class Tolerances:
    """The E_a bound of a decomposition, plus the fixed structure scale.

    Attributes:
        reconstruct: allowed Frobenius reconstruction error per recursion
            level, finite and positive (a NaN bound would pass any tree).
        structure: per-dimension scale for structural predicate checks
            (unitarity, skew-Hermiticity); most checks use structure * dim.
            Fixed, not a constructor argument.
    """

    structure: ClassVar[float] = 1e-10
    reconstruct: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.reconstruct) and self.reconstruct > 0):
            raise ValueError(
                f"reconstruct must be finite and positive, got {self.reconstruct!r}"
            )

    def reconstruct_bound(self, n: int) -> float:
        """The E_a bound for an n-qubit tree, reconstruct * max(n - 2, 1)."""
        return self.reconstruct * max(n - 2, 1)


DEFAULT_TOLS = Tolerances()
