"""Prints one `name sha256` line per input of a fixed decomposition set.

The digest is the SHA-256 of `serialize(decompose_full(g, n))` with the
report's `wall_time` zeroed, the one clock-dependent field. An input
that fails prints `name ErrorClass: message` instead. A change that
should leave every tree byte-identical is checked by running this on the
parent checkout and on the change, then diffing the two outputs:

    PYTHONPATH=src python3 tests/tree_digests.py > after.txt

A change that should move trees only at rounding level is checked by
dumping the documents on both sides and comparing them:

    PYTHONPATH=src python3 tests/tree_digests.py --dump DIR
    PYTHONPATH=src python3 tests/tree_digests.py --compare BEFORE AFTER

--dump writes DIR/<name>.tree.json, the document with wall_time zeroed,
or DIR/<name>.error.txt for an input that fails. --compare prints one
`name verdict` line per input of BEFORE (see compare_documents).

The inputs (93): the committed `perfbench/fixtures/verify` matrices,
Haar SU(8) seeds 0..49, Haar SU(4) seed 0, Haar SU(16) seeds 20251 and
20252, the identities at n = 2, 3, 4, expm_skew(0.7 P) for ten
three-qubit Pauli words P, and seven structured gates scaled into SU:
Toffoli, CCZ, the three- and four-qubit Fourier transforms, the swap of
qubits 1 and 3, and the Pauli gates XXX and IIZ. The structured gates
have degenerate spectra: their involution logs meet the eigenvalue -1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path
from typing import Iterator, Tuple

import numpy as np

from kgdecomp import (
    FactorTree,
    decompose_full,
    expm_skew,
    deserialize,
    haar_special_unitary,
    pauli_word,
    serialize,
)
from kgdecomp.fileio import matrix_from_document

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "verify"
CLOSE_TOL = 1e-9
PAULI_WORDS = ("XXX", "IIZ", "ZZX", "XYZ", "IXI", "YYI", "ZIZ", "XIX", "IXX", "YZY")


def _special(u: np.ndarray) -> np.ndarray:
    """u scaled by det(u)^(-1/N), which puts a unitary into SU(N)."""
    return u * np.linalg.det(u) ** (-1.0 / u.shape[0])


def _permutation(image) -> np.ndarray:
    """The three-qubit gate sending basis index i to image(i)."""
    u = np.zeros((8, 8), dtype=complex)
    for index in range(8):
        u[image(index), index] = 1.0
    return u


def _qft(n: int) -> np.ndarray:
    j = np.arange(2**n)
    return np.exp(2j * np.pi * np.outer(j, j) / 2**n) / np.sqrt(2**n)


def structured_gates() -> Iterator[Tuple[str, np.ndarray, int]]:
    """(name, matrix, n) of the structured gates; qubit 1 is the most
    significant bit of the basis index."""
    yield "toffoli", _permutation(lambda i: i ^ 1 if i & 0b110 == 0b110 else i), 3
    yield "ccz", np.diag([1.0] * 7 + [-1.0]).astype(complex), 3
    yield "qft3", _qft(3), 3
    yield "qft4", _qft(4), 4
    swap13 = lambda i: (i & 0b010) | ((i >> 2) & 1) | ((i & 1) << 2)
    yield "swap13", _permutation(swap13), 3
    for label in ("XXX", "IIZ"):
        # a Pauli word's matrix carries a factor i/2
        yield label.lower(), -2j * pauli_word(label).matrix, 3


def tree_document(tree: FactorTree) -> str:
    """The serialized tree, with wall_time zeroed."""
    report = dataclasses.replace(tree.report, wall_time=0.0)
    return serialize(dataclasses.replace(tree, report=report))


def tree_digest(tree: FactorTree) -> str:
    """SHA-256 of the serialized tree, with wall_time zeroed."""
    return hashlib.sha256(tree_document(tree).encode("utf-8")).hexdigest()


def compare_documents(before: str, after: str) -> str:
    """The verdict on two tree documents of one input.

    `same` when they are byte-identical. `close` when both trees have
    the same factor shapes and labels, every Cartan coordinate moves by
    at most 1e-9 and every payload P of before lies within 1e-9 of
    omega Q, the matching payload Q of after times the phase
    omega = tr(Q^dag P) / |tr(Q^dag P)| that a payload may shed into the
    global phase, and the global phases phi take those phases up:
    |e^{i (phi_before - phi_after)} prod omega - 1| <= 1e-9. `differs`
    otherwise, naming the first factor that does not match, or the phase.
    """
    if before == after:
        return "same"
    a, b = deserialize(before), deserialize(after)
    if a.n_total != b.n_total or len(a.factors) != len(b.factors):
        return (f"differs: {len(a.factors)} factors on {a.n_total} qubits against "
                f"{len(b.factors)} on {b.n_total}")
    worst_move = worst_payload = 0.0
    shed = np.exp(1j * (a.phase - b.phase))
    for i, (fa, fb) in enumerate(zip(a.factors, b.factors)):
        where = f"factors[{i}] {fa.kind.value} level {fa.level_qubits}"
        if (fa.kind, fa.level_qubits, fa.basis_name) != (fb.kind, fb.level_qubits,
                                                         fb.basis_name):
            return f"differs: {where} against {fb.kind.value} level {fb.level_qubits}"
        if fa.coeffs is not None:
            if [label for label, _ in fa.coeffs] != [label for label, _ in fb.coeffs]:
                return f"differs: {where} has other labels"
            move = max((abs(x - y) for (_, x), (_, y) in zip(fa.coeffs, fb.coeffs)),
                       default=0.0)
            if not move <= CLOSE_TOL:
                return f"differs: {where} coordinate move {move:.3e}"
            worst_move = max(worst_move, move)
        else:
            overlap = np.trace(fb.matrix.conj().T @ fa.matrix)
            omega = overlap / abs(overlap) if overlap != 0 else 1.0
            shed *= omega
            distance = float(np.linalg.norm(fa.matrix - omega * fb.matrix))
            if not distance <= CLOSE_TOL:
                return f"differs: {where} payload distance {distance:.3e}"
            worst_payload = max(worst_payload, distance)
    if not abs(shed - 1.0) <= CLOSE_TOL:
        return (f"differs: phase {a.phase!r} against {b.phase!r}, "
                f"off by {abs(shed - 1.0):.3e}")
    return f"close: coordinate move {worst_move:.3e}, payload distance {worst_payload:.3e}"


def inputs() -> Iterator[Tuple[str, np.ndarray, int]]:
    """(name, matrix, n) for every input of the set, in a fixed order."""
    for path in sorted(FIXTURES.glob("*.matrix.json")):
        n, g = matrix_from_document(path.read_text(encoding="utf-8"))
        yield path.name, g, n
    for seed in range(50):
        yield f"haar3-s{seed}", haar_special_unitary(3, np.random.default_rng(seed)), 3
    yield "haar2-s0", haar_special_unitary(2, np.random.default_rng(0)), 2
    for seed in (20251, 20252):
        yield f"haar4-s{seed}", haar_special_unitary(4, np.random.default_rng(seed)), 4
    for n in (2, 3, 4):
        yield f"identity-n{n}", np.eye(2**n, dtype=complex), n
    for label in PAULI_WORDS:
        yield f"exp-0.7{label}", expm_skew(0.7 * pauli_word(label).matrix), 3
    for name, u, n in structured_gates():
        yield name, _special(u), n


def digest_line(name: str, g: np.ndarray, n: int) -> str:
    try:
        return f"{name} {tree_digest(decompose_full(g, n))}"
    except Exception as exc:  # the failure itself is what gets compared
        return f"{name} {type(exc).__name__}: {exc}"


def dump(directory: Path) -> None:
    """Writes each input's document, or its failure, under directory."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, g, n in inputs():
        try:
            text, suffix = tree_document(decompose_full(g, n)), ".tree.json"
        except Exception as exc:  # the failure itself is what gets compared
            text, suffix = f"{type(exc).__name__}: {exc}\n", ".error.txt"
        (directory / (name + suffix)).write_text(text, encoding="utf-8")


def _read_outcome(directory: Path, name: str):
    for suffix in (".tree.json", ".error.txt"):
        path = directory / (name + suffix)
        if path.is_file():
            return suffix, path.read_text(encoding="utf-8")
    return None, None


def compare(before: Path, after: Path) -> None:
    """Prints `name verdict` for every input dumped under before."""
    names = sorted({path.name.rsplit(".", 2)[0] for path in before.iterdir()
                    if path.name.endswith((".tree.json", ".error.txt"))})
    for name in names:
        kind_a, text_a = _read_outcome(before, name)
        kind_b, text_b = _read_outcome(after, name)
        if kind_b is None:
            verdict = "differs: missing after"
        elif kind_a == kind_b == ".tree.json":
            verdict = compare_documents(text_a, text_b)
        elif text_a == text_b:
            verdict = "same"
        else:
            verdict = f"differs: {text_a.strip()} against {text_b.strip()[:200]}"
        print(f"{name} {verdict}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dump", type=Path, metavar="DIR")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
    elif args.compare:
        compare(*args.compare)
    else:
        for name, g, n in inputs():
            print(digest_line(name, g, n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
