"""The tree-digest script hashes what a change must keep byte-identical:
the same input gives the same digest, and only wall_time is ignored. Its
comparison mode tells a rounding-level move from a changed tree."""

import dataclasses

import numpy as np

from kgdecomp import decompose_full, haar_special_unitary
from kgdecomp import FactorKind
from tree_digests import (
    compare_documents,
    digest_line,
    inputs,
    tree_digest,
    tree_document,
)


def test_tree_digest_is_deterministic_and_ignores_wall_time():
    g = haar_special_unitary(3, np.random.default_rng(0))
    tree = decompose_full(g, 3)
    slower = dataclasses.replace(
        tree, report=dataclasses.replace(tree.report, wall_time=tree.report.wall_time + 1.0)
    )
    nudged = dataclasses.replace(tree, phase=float(np.nextafter(tree.phase, np.inf)))
    assert tree_digest(decompose_full(g, 3)) == tree_digest(tree) == tree_digest(slower)
    assert tree_digest(nudged) != tree_digest(tree)

    name, digest = digest_line("haar3-s0", g, 3).split()
    assert name == "haar3-s0" and digest == tree_digest(tree)
    failed = digest_line("scaled", 1.1 * np.eye(8, dtype=complex), 3)
    assert failed.startswith("scaled NotUnitaryError: ")

    names = [name for name, _, _ in inputs()]
    assert len(names) == len(set(names)) == 93


def test_compare_documents_tells_close_from_differs():
    tree = decompose_full(haar_special_unitary(3, np.random.default_rng(0)), 3)
    document = tree_document(tree)
    index = next(i for i, f in enumerate(tree.factors) if f.kind is FactorKind.CARTAN_EXP)

    def nudged(delta):
        factor = tree.factors[index]
        (label, c), *rest = factor.coeffs
        moved = dataclasses.replace(factor, coeffs=((label, c + delta), *rest))
        factors = tree.factors[:index] + (moved,) + tree.factors[index + 1:]
        return tree_document(dataclasses.replace(tree, factors=factors))

    assert compare_documents(document, document) == "same"
    close = compare_documents(document, nudged(1e-12))
    assert close.startswith("close: coordinate move 1.0")
    assert compare_documents(document, nudged(1e-6)) == (
        f"differs: factors[{index}] cartan_exp level 3 coordinate move 1.000e-06")
    # a payload may shed a phase into the global phase and stay close
    payload = next(i for i, f in enumerate(tree.factors) if f.matrix is not None)
    turned = dataclasses.replace(tree.factors[payload],
                                 matrix=1j * tree.factors[payload].matrix)
    factors = tree.factors[:payload] + (turned,) + tree.factors[payload + 1:]
    other = dataclasses.replace(tree, factors=factors, phase=tree.phase - np.pi / 2)
    assert compare_documents(document, tree_document(other)).startswith("close: ")
    shifted = dataclasses.replace(tree, phase=tree.phase + 1e-6)
    assert compare_documents(document, tree_document(shifted)).startswith(
        "differs: phase ")
