"""Truncated Baker-Campbell-Hausdorff baseline for the two-factor split.

This is the comparison path: instead of the involution logarithm, it
tries to split G = exp(k) exp(m) by solving the truncated BCH series for
the m-coordinates. The series uses Dynkin's expansion

    log(e^a e^b) = sum_k (-1)^(k-1)/k
        sum [a^r1 b^s1 ... a^rk b^sk] / ((sum_i r_i+s_i) prod_i r_i! s_i!)

with right-nested brackets. Word coefficients are accumulated as exact
rationals once per order and cached; bracket values share a suffix
memo, so an order-8 evaluation touches at most 510 distinct words.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.optimize

from .basis import PauliWord
from .config import SUBSPACE_TOL
from .errors import (
    DimensionMismatchError,
    OrderTooHighError,
    RootSearchFailedError,
    SubspaceViolationError,
)
from .linalg import AlgebraElement, expm_skew, logm_unitary, project_onto_span

__all__ = [
    "BchConfig",
    "truncated_bch",
    "split_Pk_Pm",
    "solve_bch_split",
]

_MAX_ORDER = 8

ROOT_TOL = 1e-8
"""Coordinate residual, relative to max(1, |P_M log G|), that the BCH root
search must reach."""

MAX_ROOT_ITERS = 200
"""Residual evaluations the least-squares root search may spend."""


@dataclass(frozen=True)
class BchConfig:
    """Settings for the BCH baseline.

    truncation_order caps the series degree (hard limit 8: the word
    count and the series' usefulness both degrade fast beyond that).
    """

    truncation_order: int = 6

    def __post_init__(self):
        if self.truncation_order < 1:
            raise ValueError("truncation_order must be at least 1")
        if self.truncation_order > _MAX_ORDER:
            raise OrderTooHighError(
                f"truncation_order {self.truncation_order} exceeds {_MAX_ORDER}"
            )


def _pair_compositions(total: int, k: int):
    """All k-tuples of pairs (r, s) with r + s >= 1 summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - (k - 1) + 1):
        for r in range(first + 1):
            s = first - r
            for rest in _pair_compositions(total - first, k - 1):
                yield ((r, s),) + rest


@lru_cache(maxsize=None)
def _word_coefficients(n: int) -> Dict[Tuple[int, ...], Fraction]:
    """Net Dynkin coefficient of each degree-n word, zeros dropped.

    Words are tuples over {0, 1} (0 = first argument, 1 = second); the
    associated value multiplies the right-nested bracket of the word.
    """
    coeffs: Dict[Tuple[int, ...], Fraction] = defaultdict(Fraction)
    for k in range(1, n + 1):
        sign = Fraction((-1) ** (k - 1), k)
        for pairs in _pair_compositions(n, k):
            denom = n
            word = []
            for r, s in pairs:
                denom *= factorial(r) * factorial(s)
                word.extend((0,) * r + (1,) * s)
            coeffs[tuple(word)] += sign / denom
    return {w: c for w, c in coeffs.items() if c != 0}


def _bracket(word: Tuple[int, ...], mats, cache) -> np.ndarray:
    """Right-nested bracket of a word, with shared-suffix memoization."""
    hit = cache.get(word)
    if hit is not None:
        return hit
    if len(word) == 1:
        out = mats[word[0]]
    else:
        tail = _bracket(word[1:], mats, cache)
        head = mats[word[0]]
        out = head @ tail - tail @ head
    cache[word] = out
    return out


def truncated_bch(a: np.ndarray, b: np.ndarray, order: int = 6) -> np.ndarray:
    """The BCH series for log(e^a e^b), truncated at the given order.

    Exactly a + b when a and b commute (the whole bracket tail vanishes,
    so the series is cut off before any roundoff can enter).

    Raises:
        OrderTooHighError: order exceeds 8.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"need equal square shapes, got {a.shape} and {b.shape}"
        )
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > _MAX_ORDER:
        raise OrderTooHighError(f"order {order} exceeds {_MAX_ORDER}")
    comm = a @ b - b @ a
    if np.linalg.norm(comm) <= 1e-14 * (1.0 + np.linalg.norm(a) * np.linalg.norm(b)):
        return a + b
    mats = (a, b)
    cache: Dict[Tuple[int, ...], np.ndarray] = {(0,): a, (1,): b, (0, 1): comm}
    total = np.zeros_like(a)
    for n in range(1, order + 1):
        for word, coeff in _word_coefficients(n).items():
            total = total + float(coeff) * _bracket(word, mats, cache)
    return total


def split_Pk_Pm(
    x: np.ndarray,
    k_span: Sequence[PauliWord],
    m_span: Sequence[PauliWord],
) -> Tuple[AlgebraElement, AlgebraElement]:
    """Splits an algebra element into its K-span and M-span components.

    The two spans are trace-orthogonal, so the split is the pair of
    independent projections; the combined leftover is recorded on both
    parts.

    Raises:
        SubspaceViolationError: x does not lie in span(K) + span(M)
            within the subspace tolerance.
    """
    x = np.asarray(x, dtype=complex)
    k_coords, k_resid = project_onto_span(x, k_span)
    m_coords, m_resid = project_onto_span(x, m_span)
    k_part = x - k_resid
    m_part = x - m_resid
    leftover = float(np.linalg.norm(x - k_part - m_part))
    if leftover > SUBSPACE_TOL * max(1.0, float(np.linalg.norm(x))):
        raise SubspaceViolationError(
            f"element lies {leftover:.3e} outside span(K) + span(M)"
        )
    return (
        AlgebraElement(
            matrix=k_part,
            coords=tuple(float(c) for c in k_coords),
            residual_norm=leftover,
        ),
        AlgebraElement(
            matrix=m_part,
            coords=tuple(float(c) for c in m_coords),
            residual_norm=leftover,
        ),
    )


def solve_bch_split(
    g: np.ndarray,
    k_span: Sequence[PauliWord],
    m_span: Sequence[PauliWord],
    cfg: Optional[BchConfig] = None,
) -> Tuple[AlgebraElement, AlgebraElement, float]:
    """Solves G = exp(k) exp(m) for k in span(K), m in span(M) via BCH.

    The unknown is the m-coordinate vector. For a candidate m, the
    induced cofactor log is k(m) = P_K[bch(log G, -m)]; the root
    condition pushes the M-span coordinates of bch(k(m), m) onto those
    of log G. Seeded at m0 = P_M[log G] and solved by least squares;
    accuracy is capped by the truncation order, which is the point of
    the comparison.

    Returns:
        (k, m, residual): k is the exact residual logarithm
        log(G exp(-m)) snapped onto span(K) with its off-span norm
        recorded, m the solved coordinates, and residual the Frobenius
        reconstruction error ||G - exp(k) exp(m)||.

    Raises:
        RootSearchFailedError: the coordinate residual stayed above
            ROOT_TOL; the best (k, m, residual) triple rides in `best`.
    """
    cfg = cfg or BchConfig()
    g = np.asarray(g, dtype=complex)
    g_log = logm_unitary(g)
    m_stack = np.stack([w.matrix for w in m_span])
    k_stack = np.stack([w.matrix for w in k_span])
    g_m_coords, _ = project_onto_span(g_log, m_span)
    order = cfg.truncation_order

    def residual_vec(m_coords: np.ndarray) -> np.ndarray:
        m_mat = np.tensordot(m_coords, m_stack, axes=1)
        to_split = truncated_bch(g_log, -m_mat, order)
        k_coords, _ = project_onto_span(to_split, k_span)
        k_mat = np.tensordot(k_coords, k_stack, axes=1)
        recombined = truncated_bch(k_mat, m_mat, order)
        coords, _ = project_onto_span(recombined, m_span)
        return coords - g_m_coords

    sol = scipy.optimize.least_squares(
        residual_vec,
        np.asarray(g_m_coords, dtype=float),
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=MAX_ROOT_ITERS,
    )

    m_mat = np.tensordot(sol.x, m_stack, axes=1)
    k_log = logm_unitary(g @ expm_skew(-m_mat))
    k_coords, k_resid = project_onto_span(k_log, k_span)
    k_part = k_log - k_resid
    k_elt = AlgebraElement(
        matrix=k_part,
        coords=tuple(float(c) for c in k_coords),
        residual_norm=float(np.linalg.norm(k_resid)),
    )
    m_elt = AlgebraElement(
        matrix=m_mat,
        coords=tuple(float(c) for c in sol.x),
        residual_norm=0.0,
    )
    residual = float(np.linalg.norm(g - expm_skew(k_part) @ expm_skew(m_mat)))
    root_gap = float(np.linalg.norm(sol.fun))
    if root_gap > ROOT_TOL * max(1.0, float(np.linalg.norm(g_m_coords))):
        raise RootSearchFailedError(
            f"coordinate residual {root_gap:.3e} stayed above ROOT_TOL",
            best=(k_elt, m_elt, residual),
        )
    return k_elt, m_elt, residual
