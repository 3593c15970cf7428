"""Recursive Pauli-word bases splitting su(2^n) for the involution pair.

Every basis element is the word (i/2) * (s_1 (x) ... (x) s_n) for letters
s_j in {I, X, Y, Z}, so distinct words satisfy
tr(w_p w_q) = -2^(n-2) delta_pq. The recursion seeds at two qubits with

    M_2 = {ab : a, b in {X,Y,Z}}        (the -1 eigenspace of theta_KAK)
    K_2 = {aI, Ia : a in {X,Y,Z}}       (the +1 eigenspace)
    H_2 = {XX, YY, ZZ}                  (maximal Abelian inside M_2)

where theta_KAK(A) = (Y (x) Y) conj(A) (Y (x) Y) is the two-qubit KAK
involution (theta_Z would keep XZ, YZ, ZZ and negate IX, IY), and grows
one qubit at a time, with G_n = M_n + K_n:

    M_n   = {I..IX, I..IY} + G_{n-1}*X + G_{n-1}*Y
    K_n0  = G_{n-1}*I
    K_n1  = G_{n-1}*Z
    K_n   = {I..IZ} + K_n0 + K_n1
    Hbar_n = union over j in [2, n-1] of H_j padded right with I
    H_n   = {I..IX} + Hbar_n*X
    F_n   = Hbar_n*Z          (empty at n = 2)

H_n is a Cartan subalgebra inside span(M_n) and F_n one inside span(K_n1);
both are returned pre-sorted in the canonical alphabetical order.

Each Cartan set is diagonal in one unitary basis Q, its torus
(cartan_torus), so the decomposition and the factor product reach its
words through 2^n eigenvalues each and never stack their matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BadLabelError, NonOrthogonalBasisError

__all__ = [
    "PauliWord",
    "KGBasis",
    "pauli_word",
    "word_stack",
    "build_kg_basis",
    "order_cartan_basis",
    "is_cartan_label",
    "binary_weights",
    "word_sum",
    "CartanTorus",
    "cartan_torus",
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


def _word_entries(label: str) -> Tuple[np.ndarray, np.ndarray]:
    """(cols, vals): the word (i/2) s_1 (x) ... (x) s_n as a signed
    permutation, whose row r holds vals[r] in column cols[r].

    With the first letter the most significant bit, X flips a bit, Z
    signs it, and Y = i X Z does both; a row's sign is the parity of its
    column on the Z and Y letters.
    """
    flip = sign = 0
    for ch in label:
        flip = (flip << 1) | (ch in "XY")
        sign = (sign << 1) | (ch in "YZ")
    cols = np.arange(2 ** len(label)) ^ flip
    parity = np.zeros(len(cols), dtype=int)
    masked = cols & sign
    while masked.any():
        parity ^= masked & 1
        masked = masked >> 1
    vals = (0.5j * 1j ** label.count("Y")) * (1 - 2 * parity)
    return cols, vals


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


def word_stack(words: Sequence[PauliWord]) -> np.ndarray:
    """The read-only, cached (q, 2^n, 2^n) stack of the words' matrices.

    Distinct words of one length are trace-orthogonal with squared norm
    2^(n-2), so this label check stands in for a Gram matrix.

    Raises:
        NonOrthogonalBasisError: a word repeats or the lengths differ.
    """
    return _stack(tuple(words))


@lru_cache(maxsize=64)
def _stack(words: Tuple[PauliWord, ...]) -> np.ndarray:
    labels = [w.label for w in words]
    if len(set(labels)) != len(labels) or len(set(map(len, labels))) > 1:
        raise NonOrthogonalBasisError(f"need distinct words of one length: {labels}")
    out = np.stack([_word_matrix(label) for label in labels])
    out.setflags(write=False)
    return out


def order_cartan_basis(words: Sequence[PauliWord]) -> Tuple[PauliWord, ...]:
    """Sorts words by label, ascending under I < X < Y < Z.

    Plain string sorting realizes that character order, the order of
    CartanTorus.labels, and the result fixes which words get the binary
    weights of the torus generator v (binary_weights).
    """
    return tuple(sorted(words, key=lambda w: w.label))


def _symplectic_bits(label: str) -> int:
    """The (x, z) bit pairs of a Pauli label, two bits per qubit, as an int.

    Words multiply, up to phase, as these vectors add over GF(2)
    (Aaronson & Gottesman, PRA 70, 052328, 2004).
    """
    bits = 0
    for letter in label:
        bits = (bits << 2) | "IZXY".index(letter)
    return bits


def binary_weights(labels: Sequence[str]) -> Tuple[float, ...]:
    """The weights w of the torus generator v = sum_i w_i word_i on labels.

    Walking labels in order, a word whose symplectic bit vector is
    GF(2)-independent of the words kept so far gets the next weight
    1, 2, 4, ...; a word that is a product of kept ones gets 0, so sorted
    H_3 gets (1, 2, 4, 0) and sorted F_4 gets (1, 2, 4, 8, 0, 0, 0). The
    n kept words of an H_n or F_n set have 2^n joint eigenspaces of
    dimension one, so -i v has 2^n distinct eigenvalues, sums of
    +-w_i / 2 with gap 1, and its centralizer is exactly the Cartan span.
    cartan_torus applies this to the canonical order, so v is
    reproducible.
    """
    pivots = {}
    weights = []
    for label in labels:
        bits = _symplectic_bits(label)
        while bits and bits.bit_length() in pivots:
            bits ^= pivots[bits.bit_length()]
        if bits:
            pivots[bits.bit_length()] = bits
            weights.append(2.0 ** (len(pivots) - 1))
        else:
            weights.append(0.0)
    return tuple(weights)


def word_sum(labels: Sequence[str], coeffs: Sequence[float], n: int) -> np.ndarray:
    """sum_i coeffs[i] * word(labels[i]) as a 2^n matrix, with no stack.

    Words with a zero coefficient are skipped. Each other word adds its
    signed-permutation entries into a zero matrix; with power-of-two
    coefficients every sum is exact, so the torus generator v
    (cartan_torus) comes out the same to the bit as a tensordot of
    binary_weights over the full word stack.
    """
    out = np.zeros((2**n, 2**n), dtype=complex)
    rows = np.arange(2**n)
    for label, coeff in zip(labels, coeffs):
        if coeff:
            cols, vals = _word_entries(label)
            out[rows, cols] += coeff * vals
    return out


@dataclass(frozen=True)
class KGBasis:
    """The six labeled word sets splitting su(2^n) at one recursion level.

    m_set/k_set partition a full basis of su(2^n) into the -1/+1
    eigenspaces of theta_Z for n >= 3, and of theta_KAK at the n = 2
    seed (see the module docstring). For n >= 3, k0_set/k1_set refine
    k_set by theta_X sign, with the central I..IZ word kept separately
    at the front of k_set; both refinements are empty at the n = 2 seed.
    h_set and f_set are the Abelian subsets, in canonical order.

    The decomposition builds no KGBasis and stacks no words: it reaches
    H_n and F_n through their tori (cartan_torus), z_word through its
    diagonal, and the other subspaces by the involution averages
    (1 +- theta) / 2. h_set and f_set list the labels of the tori in the
    same order.
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
    """True when `label` names a word of H_j, j = len(label).

    Each pass strips the trailing X and then the right I padding: every
    H_j word ends in a letter other than I, so the padding names the one
    j the Hbar word left over can come from.
    """
    while len(label) > 2:
        head = label[:-1]
        if label[-1] != "X":
            return False
        if not head.strip("I"):
            return True
        label = head.rstrip("I")
    return label in ("XX", "YY", "ZZ")


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
    return (
        family == "F" and n >= 3 and label[-1] == "Z" and _in_h(label[:-1].rstrip("I"))
    )


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


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class CartanTorus:
    """One Cartan set in the unitary basis q that makes all its words diagonal.

    Attributes:
        name: the basis name, "H3" or "F4".
        labels: the set's labels in canonical order.
        rows: label -> its row of signs.
        v: the torus generator sum_i w_i word_i, w = binary_weights(labels).
        u: for n >= 3, the joint eigenbasis of the head words W on the
            first n - 1 qubits, the eigh of -i times v's off-diagonal
            (H) or diagonal (F) last-qubit block; None at n = 2.
        q: kron(u, hadamard) for H_n, kron(u, I2) for F_n (the last
            qubit least significant), and the eigh of -i v for H_2, a
            Bell basis.
        signs: (|labels|, 2^n) entries +-1 with
            q^dag word q = (i/2) diag(signs[row]).
        mu: the eigenvalues of -i v, (1/2) signs^T weights.
        es_weights: C_ab = sum_w (signs_wa - signs_wb)^2 / 4, so that
            sum_w ||[word, x]||_F^2 = sum_ab C_ab |(q^dag x q)_ab|^2.

    The read-only q_dag, figure_weights and block_figures are built on
    first use and kept.
    """

    name: str
    labels: Tuple[str, ...]
    rows: Dict[str, int]
    v: np.ndarray
    u: Optional[np.ndarray]
    q: np.ndarray
    signs: np.ndarray
    mu: np.ndarray
    es_weights: np.ndarray

    @cached_property
    def q_dag(self) -> np.ndarray:
        """q^dag."""
        return _read_only(self.q.conj().T)

    @cached_property
    def figure_weights(self) -> np.ndarray:
        """The real (4, 4^n) rows (mu_a - mu_b)^2, C_ab, 1 - delta_ab and 1,
        each flattened row-major over (a, b): one product with
        |q^dag x q|^2 gives ||[v, x]||^2, sum_w ||[word, x]||^2, the
        off-diagonal and the whole ||x||^2 (engine._stage_figures)."""
        return _figure_weights(self.mu, self.es_weights)

    @cached_property
    def block_figures(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(signs[:, 0::2], mu[0::2], figure_weights) of the block
        x~[0::2, 0::2], the weights from mu[0::2] and
        es_weights[0::2, 0::2]: what the F torus reads off an
        x = diag(X, -X) in the last-qubit block view."""
        mu = self.mu[0::2]
        return self.signs[:, 0::2], mu, _figure_weights(mu, self.es_weights[0::2, 0::2])

    def rows_of(self, labels: Iterable[str]) -> np.ndarray:
        """The signs rows of labels, in their order.

        Raises:
            BadLabelError: a label is not in the set; the message names it.
        """
        try:
            return np.array([self.rows[label] for label in labels], dtype=int)
        except KeyError as exc:
            raise BadLabelError(
                f"label {exc.args[0]!r} is not in basis {self.name}"
            ) from None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _figure_weights(mu: np.ndarray, es_weights: np.ndarray) -> np.ndarray:
    """CartanTorus.figure_weights from mu and the E_s weights."""
    dim = len(mu)
    gaps = mu[:, None] - mu[None, :]
    rows = (gaps * gaps, es_weights, 1.0 - np.eye(dim), np.ones((dim, dim)))
    return _read_only(np.stack(rows).reshape(4, dim * dim))


def _word_diagonal(label: str, q: np.ndarray) -> np.ndarray:
    """diag(q^dag s q) for the Hermitian word s named by label."""
    cols, vals = _word_entries(label)
    # (s q)[r] = (-2i vals[r]) q[cols[r]]
    return np.einsum("ra,ra->a", q.conj(), (-2j * vals)[:, None] * q[cols]).real


@lru_cache(maxsize=None)
def cartan_torus(family: str, n: int) -> CartanTorus:
    """The cached torus of H_n (family "H", n >= 2) or F_n ("F", n >= 2).

    Built from the labels alone: v is a word_sum of its nonzero-weight
    words, and each row of signs is one signed permutation applied to q,
    so no word stack is formed. F_2 is empty; its torus has no rows and
    q = I.

    Raises:
        ValueError: family is not "H" or "F", or n < 2.
    """
    # imported here: linalg imports this module
    from .linalg import _eigh

    if family not in ("H", "F") or n < 2:
        raise ValueError(f"no Cartan set {family}{n}")
    labels = tuple(sorted(_label_sets(n)[4 if family == "H" else 5]))
    weights = np.asarray(binary_weights(labels))
    v = word_sum(labels, weights, n)
    u = None
    if n == 2:
        _, q = _eigh(-1j * v)
    else:
        block = v[0::2, 1::2] if family == "H" else v[0::2, 0::2]
        _, u = _eigh(-1j * block)
        q = np.kron(u, _HADAMARD if family == "H" else np.eye(2))
    diagonals = np.array([_word_diagonal(label, q) for label in labels])
    diagonals = diagonals.reshape(len(labels), 2**n)
    signs = np.rint(diagonals)
    if np.any(np.abs(diagonals - signs) > 1e-8) or np.any(signs == 0):
        raise AssertionError(f"{family}{n} is not diagonal in its torus basis")
    es_weights = 0.5 * (len(labels) - signs.T @ signs)
    for array in (v, u, q, signs, es_weights):
        if array is not None:
            array.setflags(write=False)
    mu = 0.5 * (weights @ signs)
    mu.setflags(write=False)
    return CartanTorus(
        name=f"{family}{n}",
        labels=labels,
        rows={label: row for row, label in enumerate(labels)},
        v=v,
        u=u,
        q=q,
        signs=signs,
        mu=mu,
        es_weights=es_weights,
    )
