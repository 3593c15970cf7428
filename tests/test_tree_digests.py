"""The tree-digest script hashes what a change must keep byte-identical:
the same input gives the same digest, and only wall_time is ignored."""

import dataclasses

import numpy as np

from kgdecomp import decompose_full, haar_special_unitary
from tree_digests import digest_line, inputs, tree_digest


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
