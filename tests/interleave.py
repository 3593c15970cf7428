"""Times this checkout's kgdecomp against another in one process.

Both packages are imported side by side, this one from the `src/` next
to this file and the other from PARENT_SRC under the name
`kgdecomp_parent`, and each round runs one pass of the 160 `haar3`
inputs on both sides (Haar SU(8), input i drawn from
default_rng([7, 3, i]), as perfbench draws them for seed 7). Each input
is timed as perfbench's `decompose_op` times it, matrix document ->
decompose_full -> serialize, once on each side, the side that runs
first alternating from input to input. Before any timing, every input's
two documents, with the report's wall_time zeroed, are compared by
tree_digests.compare_documents: each must be `same` (byte-identical) or
`close` (moved at rounding level only); an input that `differs`, or
fails on either side, ends the run, and a `same N, close M` line tallies
the rest.

    PYTHONPATH=src python3 tests/interleave.py PARENT_SRC [--rounds R]

prints the tally, then one `round r  ratio x` line per round, x the
change's per-solve time over the parent's, then the median ratio and its
range. One
process sees the same clock drift on both sides, which two benchmark
runs minutes apart do not.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE_SRC = Path(__file__).resolve().parents[1] / "src"
COUNT = 160
SEED = 7


def load(src: Path, name: str):
    """The kgdecomp package under src, imported as the module name, with
    its fileio module at .fileio."""
    package = src / "kgdecomp"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    module.fileio = importlib.import_module(f"{name}.fileio")
    return module


def documents(kg):
    """The matrix documents of the haar3 inputs, written by kg."""
    return [
        kg.fileio.matrix_to_document(
            kg.haar_special_unitary(3, np.random.default_rng([SEED, 3, i]))
        )
        for i in range(COUNT)
    ]


def solve(kg, doc: str) -> str:
    n, g = kg.fileio.matrix_from_document(doc)
    return kg.serialize(kg.decompose_full(g, n))


def zeroed(kg, doc: str) -> str:
    """The tree document of the matrix document, wall_time zeroed."""
    n, g = kg.fileio.matrix_from_document(doc)
    tree = kg.decompose_full(g, n)
    report = dataclasses.replace(tree.report, wall_time=0.0)
    return kg.serialize(dataclasses.replace(tree, report=report))


def verdict(change, parent, doc: str) -> str:
    """compare_documents on the parent's and the change's documents of
    one input, or `failed: ...` where either side raises."""
    # imported here: tree_digests imports kgdecomp, which load() has set
    from tree_digests import compare_documents

    try:
        return compare_documents(zeroed(parent, doc), zeroed(change, doc))
    except Exception as exc:  # the failure itself is what gets reported
        return f"failed: {type(exc).__name__}: {exc}"


def one_round(change, parent, docs, change_first: bool):
    """(change seconds, parent seconds) of one pass over docs, the two
    sides alternating input by input, so that both see the same drift."""
    clock = time.perf_counter
    spent = {change: 0.0, parent: 0.0}
    order = (change, parent) if change_first else (parent, change)
    for doc in docs:
        for kg in order:
            start = clock()
            solve(kg, doc)
            spent[kg] += clock() - start
        order = order[::-1]
    return spent[change], spent[parent]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent_src", type=Path, metavar="PARENT_SRC")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    change = load(HERE_SRC, "kgdecomp")
    parent = load(args.parent_src.resolve(), "kgdecomp_parent")
    docs = documents(change)
    tally = {"same": 0, "close": 0}
    for i, doc in enumerate(docs):
        outcome = verdict(change, parent, doc)
        kind = outcome.split(":")[0]
        if kind not in tally:
            print(f"input {i}: {outcome}", file=sys.stderr)
            return 1
        tally[kind] += 1
    print(f"same {tally['same']}, close {tally['close']}", flush=True)
    ratios = []
    for r in range(args.rounds):
        new, base = one_round(change, parent, docs, change_first=r % 2 == 0)
        ratios.append(new / base)
        print(f"round {r}  ratio {ratios[-1]:.3f}")
    print(
        f"median {statistics.median(ratios):.3f}  "
        f"range {min(ratios):.3f}-{max(ratios):.3f}  ({args.rounds} rounds of {COUNT})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
