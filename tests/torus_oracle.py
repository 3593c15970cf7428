"""A Cartan torus built on the whole 2^n register, as an oracle.

basis.cartan_torus builds each torus of n >= 3 on the 2^(n-1) block of
its head words. This helper builds the same torus the long way round,
at 2^n: the generator v = word_sum over the full labels, u from the eigh
of v's last-qubit block, q = kron(u, hadamard or I2), one 2^n diagonal
per label, and from those signs the eigenvalues mu of -i v, the E_s
weights C and the block weights of each stage. Tests compare the torus
against it bit for bit and read v, mu and es_weights, which the torus
does not keep, from it.
"""

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from kgdecomp import linalg
from kgdecomp.basis import _word_entries, binary_weights, build_kg_basis, word_sum

FullTorus = namedtuple("FullTorus", "labels v u q signs mu es_weights block_figures")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _word_diagonal(label, q):
    # diag(q^dag s q) for the Hermitian word s named by label
    cols, vals = _word_entries(label)
    return np.einsum("ra,ra->a", q.conj(), (-2j * vals)[:, None] * q[cols]).real


def _block_weights(mu, es_weights, col):
    # the rows (mu_a - mu_b)^2, C_ab, 1 - delta_ab and 1 at the entries
    # (a, b) = (2i, 2j + col), flattened row-major over (i, j)
    rows, cols = np.arange(0, len(mu), 2), np.arange(col, len(mu), 2)
    gaps = mu[rows][:, None] - mu[cols][None, :]
    off = rows[:, None] != cols
    table = (gaps * gaps, es_weights[0::2, col::2], off, np.ones(gaps.shape))
    return np.stack(table).reshape(4, gaps.size)


@lru_cache(maxsize=None)
def full_torus(family, n):
    """The FullTorus of H_n (family "H") or F_n ("F"), n >= 2; u and
    block_figures are None at n = 2, where q is the eigh of -i v."""
    kg = build_kg_basis(n)
    labels = tuple(w.label for w in (kg.h_set if family == "H" else kg.f_set))
    weights = np.asarray(binary_weights(labels))
    v = word_sum(labels, weights, n)
    u = figures = None
    if n == 2:
        _, q = linalg._eigh(-1j * v)
    else:
        block = v[0::2, 1::2] if family == "H" else v[0::2, 0::2]
        _, u = linalg._eigh(-1j * block)
        q = np.kron(u, _HADAMARD if family == "H" else np.eye(2))
    diagonals = np.array([_word_diagonal(label, q) for label in labels])
    signs = np.rint(diagonals.reshape(len(labels), 2**n))
    assert np.all(np.abs(diagonals.reshape(signs.shape) - signs) <= 1e-8)
    es_weights = 0.5 * (len(labels) - signs.T @ signs)
    mu = 0.5 * (weights @ signs)
    if n > 2:
        weights = _block_weights(mu, es_weights, 0)
        if family == "H":
            weights = np.concatenate((weights, _block_weights(mu, es_weights, 1)), axis=1)
        figures = (signs[:, 0::2], weights, math.sqrt(mu @ mu))
    return FullTorus(labels, v, u, q, signs, mu, es_weights, figures)


def full_torus_of(torus):
    """The FullTorus of a basis.CartanTorus, by its name."""
    return full_torus(torus.name[0], int(torus.name[1:]))
