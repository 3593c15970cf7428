"""Recursive Pauli-word bases splitting su(2^n) for the involution pair.

Every basis element is the word (i/2) * (s_1 (x) ... (x) s_n) for letters
s_j in {I, X, Y, Z}, so distinct words satisfy
tr(w_p w_q) = -2^(n-2) delta_pq. The recursion seeds at two qubits with

    M_2 = {ab : a, b in {X,Y,Z}}        (the -1 eigenspace of theta_Z)
    K_2 = {aI, Ia : a in {X,Y,Z}}       (the +1 eigenspace)
    H_2 = {XX, YY, ZZ}                  (maximal Abelian inside M_2)

and grows one qubit at a time, with G_n = M_n + K_n:

    M_n   = {I..IX, I..IY} + G_{n-1}*X + G_{n-1}*Y
    K_n0  = G_{n-1}*I
    K_n1  = G_{n-1}*Z
    K_n   = {I..IZ} + K_n0 + K_n1
    Hbar_n = union over j in [2, n-1] of H_j padded right with I
    H_n   = {I..IX} + Hbar_n*X
    F_n   = Hbar_n*Z          (empty at n = 2)

H_n is a Cartan subalgebra inside span(M_n) and F_n one inside span(K_n1);
both are returned pre-sorted in the canonical alphabetical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import BadLabelError

__all__ = [
    "PauliWord",
    "KGBasis",
    "pauli_word",
    "build_kg_basis",
    "order_cartan_basis",
    "is_cartan_label",
]

_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliWord:
    """The su(2^n) element (i/2) * tensor product named by `label`."""

    label: str

    @property
    def n(self) -> int:
        return len(self.label)

    @property
    def matrix(self) -> np.ndarray:
        return _word_matrix(self.label)

    def __repr__(self) -> str:
        return f"PauliWord({self.label!r})"


@lru_cache(maxsize=None)
def _word_matrix(label: str) -> np.ndarray:
    out = _SIGMA[label[0]]
    for ch in label[1:]:
        out = np.kron(out, _SIGMA[ch])
    out = 0.5j * out
    out.setflags(write=False)
    return out


def pauli_word(label: str) -> PauliWord:
    """Builds the Pauli word (i/2) s_1 (x) ... (x) s_n from its label.

    Args:
        label: nonempty string over the alphabet {I, X, Y, Z}.

    Raises:
        BadLabelError: on an empty label or any other character.
    """
    if not label or any(ch not in _SIGMA for ch in label):
        raise BadLabelError(f"label must be nonempty over I/X/Y/Z, got {label!r}")
    return PauliWord(label)


def order_cartan_basis(words: Sequence[PauliWord]) -> Tuple[PauliWord, ...]:
    """Sorts words by label, ascending under I < X < Y < Z.

    Plain string sorting realizes that character order, and the result
    fixes the pi-power weights of the dense generator v.
    """
    return tuple(sorted(words, key=lambda w: w.label))


@dataclass(frozen=True)
class KGBasis:
    """The six labeled word sets splitting su(2^n) at one recursion level.

    m_set/k_set partition a full basis of su(2^n) into the -1/+1
    eigenspaces of theta_Z. For n >= 3, k0_set/k1_set refine k_set by
    theta_X sign, with the central I..IZ word kept separately at the
    front of k_set; both refinements are empty at the n = 2 seed.
    h_set and f_set are the Abelian subsets, in canonical order.
    """

    n: int
    m_set: Tuple[PauliWord, ...]
    k_set: Tuple[PauliWord, ...]
    k0_set: Tuple[PauliWord, ...]
    k1_set: Tuple[PauliWord, ...]
    h_set: Tuple[PauliWord, ...]
    f_set: Tuple[PauliWord, ...]

    @property
    def z_word(self) -> PauliWord:
        """The central word (i/2) I^(n-1) (x) Z commuting with all of k."""
        return PauliWord("I" * (self.n - 1) + "Z")


def _append(prefixes: Iterable[str], letter: str) -> List[str]:
    return [p + letter for p in prefixes]


@lru_cache(maxsize=None)
def _label_sets(n: int):
    """(m, k, k0, k1, h, f) label lists for level n, recursion order."""
    if n == 2:
        m = [a + b for a in "XYZ" for b in "XYZ"]
        k = [w for a in "XYZ" for w in (a + "I", "I" + a)]
        return m, k, [], [], ["XX", "YY", "ZZ"], []
    m_prev, k_prev, *_ = _label_sets(n - 1)
    g_prev = m_prev + k_prev
    pad = "I" * (n - 1)
    m = [pad + "X", pad + "Y"] + _append(g_prev, "X") + _append(g_prev, "Y")
    k0 = _append(g_prev, "I")
    k1 = _append(g_prev, "Z")
    k = [pad + "Z"] + k0 + k1
    hbar = [h + "I" * (n - 1 - j) for j in range(2, n) for h in _label_sets(j)[4]]
    h = [pad + "X"] + _append(hbar, "X")
    f = _append(hbar, "Z")
    return m, k, k0, k1, h, f


def _in_h(label: str) -> bool:
    n = len(label)
    if n <= 2:
        return label in ("XX", "YY", "ZZ")
    return label[-1] == "X" and (label[:-1] == "I" * (n - 1) or _in_hbar(label[:-1]))


def _in_hbar(label: str) -> bool:
    # every H_j word ends in a letter other than I, so stripping the
    # right padding recovers the one j it can come from
    return _in_h(label.rstrip("I"))


def is_cartan_label(label: str, family: str, n: int) -> bool:
    """True when `label` names a word of H_n (family "H") or F_n ("F").

    Reads the recursion of the module docstring backwards on the label
    alone, in O(n^2) time, so a caller can check a label of any level
    without building the 2^(n-1)-word set, let alone the 4^n - 1 words
    of `build_kg_basis(n)`.
    """
    if len(label) != n:
        return False
    if family == "H":
        return _in_h(label)
    return family == "F" and n >= 3 and label[-1] == "Z" and _in_hbar(label[:-1])


@lru_cache(maxsize=None)
def build_kg_basis(n: int) -> KGBasis:
    """Builds the level-n basis sets by the two-qubit-seeded recursion.

    Args:
        n: qubit count, at least 2.

    Returns:
        KGBasis with |m|+|k| = 4^n - 1 and, for n >= 3, |h| = 2^(n-1) and
        |f| = 2^(n-1) - 1; the n = 2 seed has the three-word H_2 and an
        empty F_2. h/f come canonically ordered; labels never repeat.
    """
    if n < 2:
        raise ValueError(f"basis is defined for n >= 2, got {n}")
    m, k, k0, k1, h, f = _label_sets(n)
    all_labels = m + k
    if len(set(all_labels)) != len(all_labels):
        raise AssertionError("duplicate labels in basis recursion")
    words = lambda labels: tuple(pauli_word(s) for s in labels)
    return KGBasis(
        n=n,
        m_set=words(m),
        k_set=words(k),
        k0_set=words(k0),
        k1_set=words(k1),
        h_set=order_cartan_basis(words(h)),
        f_set=order_cartan_basis(words(f)),
    )
