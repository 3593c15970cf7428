"""Truncated Baker-Campbell-Hausdorff baseline for the two-factor split.

This is the comparison path: instead of the involution logarithm, it
tries to split G = exp(k) exp(m) by solving the truncated BCH series for
the m-coordinates. The degree-d term of the series is the t^d
coefficient of log(e^{ta} e^{tb}) = log(1 + X(t)), where

    X(t) = sum_{d >= 1} t^d X_d,    X_d = sum_{r+s=d} a^r b^s / (r! s!),

so the series truncated at order N is the degree <= N part of
sum_{j=1..N} (-1)^(j-1) X^j / j, with every product cut off at degree N.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .basis import PauliWord, word_stack
from .errors import (
    DimensionMismatchError,
    OrderTooHighError,
    RootSearchFailedError,
)
from .linalg import (
    AlgebraElement,
    _norm,
    expm_skew,
    logm_unitary,
    project_onto_span,
)

__all__ = [
    "MAX_ORDER",
    "SPLIT_TOL",
    "check_order",
    "truncated_bch",
    "solve_bch_split",
]

MAX_ORDER = 8
"""Highest supported truncation order: the truncated series is no
better a baseline beyond it, and its cost grows as order^3 products."""

ROOT_TOL = 1e-8
"""Coordinate residual, relative to max(1, |P_M log G|), that the BCH root
search must reach."""

MAX_ROOT_ITERS = 200
"""Residual evaluations the least-squares root search may spend."""

SPLIT_TOL = 0.1
"""Largest reconstruction error ||G - exp(k) exp(m)|| a returned split may
have. The coordinate root can be met while the split misses G by O(1)
(Haar SU(8) inputs far from the identity); a truncated series that
accurate is no split at all."""


def check_order(order: int) -> None:
    """Raises unless 1 <= order <= MAX_ORDER.

    Raises:
        ValueError: order is below 1.
        OrderTooHighError: order exceeds MAX_ORDER.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if order > MAX_ORDER:
        raise OrderTooHighError(f"order {order} exceeds {MAX_ORDER}")


def truncated_bch(a: np.ndarray, b: np.ndarray, order: int = 6) -> np.ndarray:
    """The BCH series for log(e^a e^b), truncated at the given order.

    Sums the degree <= order part of log(1 + X) = sum_j (-1)^(j-1) X^j / j
    for X = e^a e^b - 1 = sum_d X_d, carrying each power X^j as its
    degree parts j..order (see the module docstring); that is about
    order^3 / 6 matrix products.

    Exactly a + b when a and b commute (the whole bracket tail vanishes,
    so the series is cut off before any roundoff can enter).

    Raises:
        ValueError: order is below 1.
        OrderTooHighError: order exceeds MAX_ORDER.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"need equal square shapes, got {a.shape} and {b.shape}"
        )
    check_order(order)
    comm = a @ b - b @ a
    if _norm(comm) <= 1e-14 * (1.0 + _norm(a) * _norm(b)):
        return a + b
    # a_pow[r] = a^r / r!, b_pow[s] = b^s / s!
    a_pow = [np.eye(len(a), dtype=complex)]
    b_pow = [a_pow[0]]
    for r in range(1, order + 1):
        a_pow.append(a_pow[-1] @ a / r)
        b_pow.append(b_pow[-1] @ b / r)
    x = [None] + [
        a_pow[d] + b_pow[d] + sum(a_pow[r] @ b_pow[d - r] for r in range(1, d))
        for d in range(1, order + 1)
    ]
    # x_pow[d] is the degree-d part of X^j, which starts at degree j
    x_pow = x
    total = sum(x[1:])
    for j in range(2, order + 1):
        x_pow = [None] * j + [
            sum(x_pow[e] @ x[d - e] for e in range(j - 1, d))
            for d in range(j, order + 1)
        ]
        total = total + (-1) ** (j - 1) / j * sum(x_pow[j:])
    return total


def solve_bch_split(
    g: np.ndarray,
    k_span: Sequence[PauliWord],
    m_span: Sequence[PauliWord],
    order: int = 6,
) -> Tuple[AlgebraElement, AlgebraElement, float]:
    """Solves G = exp(k) exp(m) for k in span(K), m in span(M) via BCH.

    The unknown is the m-coordinate vector. For a candidate m, the
    induced cofactor log is k(m) = P_K[bch(log G, -m)]; the root
    condition pushes the M-span coordinates of bch(k(m), m) onto those
    of log G, with both series truncated at `order`. Seeded at
    m0 = P_M[log G] and solved by least squares; accuracy is capped by
    the truncation order, which is the point of the comparison.

    Returns:
        (k, m, residual): k is the exact residual logarithm
        log(G exp(-m)) snapped onto span(K) with its off-span norm
        recorded, m the solved coordinates, and residual the Frobenius
        reconstruction error ||G - exp(k) exp(m)||.

    Raises:
        ValueError, OrderTooHighError: order is outside 1..MAX_ORDER;
            checked before any work.
        RootSearchFailedError: the coordinate residual stayed above
            ROOT_TOL, or the reconstruction error exceeds SPLIT_TOL; the
            best (k, m, residual) triple rides in `best`.
    """
    # imported here: at module level it would add about 21 MiB of peak
    # RSS and 0.25 s to every `import kgdecomp`
    import scipy.optimize

    check_order(order)
    g = np.asarray(g, dtype=complex)
    g_log = logm_unitary(g)
    m_stack = word_stack(m_span)
    k_stack = word_stack(k_span)
    g_m_coords, _ = project_onto_span(g_log, m_span)

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
        residual_norm=_norm(k_resid),
    )
    m_elt = AlgebraElement(
        matrix=m_mat,
        coords=tuple(float(c) for c in sol.x),
        residual_norm=0.0,
    )
    residual = _norm(g - expm_skew(k_part) @ expm_skew(m_mat))
    root_gap = _norm(sol.fun)
    if root_gap > ROOT_TOL * max(1.0, _norm(g_m_coords)):
        raise RootSearchFailedError(
            f"coordinate residual {root_gap:.3e} stayed above ROOT_TOL",
            best=(k_elt, m_elt, residual),
        )
    if residual > SPLIT_TOL:
        raise RootSearchFailedError(
            f"split reconstruction error {residual:.3e} exceeds SPLIT_TOL "
            f"{SPLIT_TOL:.1e}",
            best=(k_elt, m_elt, residual),
        )
    return k_elt, m_elt, residual
