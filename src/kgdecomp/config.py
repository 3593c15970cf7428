"""Default numerical tolerances, configurable per call site."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle threaded through the decomposition pipeline.

    Attributes:
        structure: per-dimension scale for structural predicate checks
            (unitarity, skew-Hermiticity); most checks use structure * dim.
        reconstruct: allowed Frobenius reconstruction error per recursion
            level.
        cartan: relative commutator bound ||[h, v]|| / (||h|| ||v||) that
            the Cartan optimizer must reach.
        subspace: largest projection residual that snap-to-span repair will
            absorb; anything bigger fails loudly.
        pattern: allowed deviation from required block patterns (tensor
            with identity, single Z word).
    """

    structure: float = 1e-10
    reconstruct: float = 1e-9
    cartan: float = 1e-8
    subspace: float = 1e-3
    pattern: float = 1e-8

    def reconstruct_bound(self, n: int) -> float:
        """The E_a bound for an n-qubit tree, reconstruct * max(n - 2, 1)."""
        return self.reconstruct * max(n - 2, 1)


DEFAULT_TOLS = Tolerances()
