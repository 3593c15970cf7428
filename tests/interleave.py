"""Times this checkout's kgdecomp against another in one process.

Both packages are imported side by side, this one from the `src/` next
to this file and the other from PARENT_SRC under the name
`kgdecomp_parent`, and each round times one pass of a workload's inputs
on both sides, the side that runs first alternating from input to input.

`--workload haar3` (the default) runs the 160 `haar3` inputs (Haar
SU(8), input i drawn from default_rng([7, 3, i]), as perfbench draws
them for seed 7), each timed as perfbench's `decompose_op` times it,
matrix document -> decompose_full -> serialize. Before any timing, every
input's two documents, with the report's wall_time zeroed, are compared
by tree_digests.compare_documents: each must be `same` (byte-identical)
or `close` (moved at rounding level only); an input that `differs`, or
fails on either side, ends the run, and a `same N, close M` line tallies
the rest.

`--workload verify` runs the committed tree fixtures of
`perfbench/fixtures/verify` (n = 3 and 4), each timed as perfbench's
`verify_op` times it, matrix document -> deserialize -> product and E_a
-> factor_defects of every factor, and a round passes over them
VERIFY_PASSES times. Before any timing, each tree must read on both
sides to the same phase, report and factors bit for bit, and give the
same E_a; any difference ends the run, and a `same N` line tallies the
inputs.

    PYTHONPATH=src python3 tests/interleave.py PARENT_SRC [--rounds R] [--workload W]

prints the tally, then one `round r  ratio x` line per round, x the
change's time over the parent's, then the median ratio and its range.
One process sees the same clock drift on both sides, which two benchmark
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
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "verify"
COUNT = 160
SEED = 7
# a verify op takes well under a millisecond, so a round passes over the
# fixtures this many times to time each side for a tenth of a second
VERIFY_PASSES = 10


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


def fixtures():
    """(matrix document, tree document) of each committed verify fixture."""
    return [
        (path.read_text(encoding="utf-8"),
         path.with_name(path.name.replace(".matrix.", ".tree.")).read_text(encoding="utf-8"))
        for path in sorted(FIXTURES.glob("*.matrix.json"))
    ]


def verify(kg, item) -> float:
    """perfbench's verify op on one (matrix, tree) document pair: E_a."""
    matrix_doc, tree_doc = item
    _, g = kg.fileio.matrix_from_document(matrix_doc)
    tree = kg.deserialize(tree_doc)
    ea = float(np.linalg.norm(g - kg.product(tree)))
    for factor in tree.factors:
        kg.factor_defects(factor)
    return ea


def reading(kg, item) -> tuple:
    """Everything one side reads from a fixture, and its E_a, as
    comparable bits: scalars by repr, which tells -0.0 from 0.0."""
    tree = kg.deserialize(item[1])
    report = None if tree.report is None else dataclasses.astuple(tree.report)
    scalars = [tree.n_total, tree.phase, report, verify(kg, item)]
    payloads = []
    for f in tree.factors:
        scalars.append((f.kind.value, f.level_qubits, f.basis_name, f.coeffs, f.subspace_residual))
        if f.matrix is not None:
            payloads.append((f.matrix.shape, f.matrix.dtype.str, f.matrix.tobytes()))
    return repr(scalars), payloads


def read_verdict(change, parent, item) -> str:
    """`same` when both sides read the fixture to the same bits and E_a,
    else `differs`, or `failed: ...` where either side raises."""
    try:
        return "same" if reading(change, item) == reading(parent, item) else "differs"
    except Exception as exc:  # the failure itself is what gets reported
        return f"failed: {type(exc).__name__}: {exc}"


# name: (inputs of kg, verdict, timed op, passes per round, verdicts allowed)
WORKLOADS = {
    "haar3": (documents, verdict, solve, 1, ("same", "close")),
    "verify": (lambda kg: fixtures(), read_verdict, verify, VERIFY_PASSES, ("same",)),
}


def one_round(change, parent, items, op, change_first: bool):
    """(change seconds, parent seconds) of one pass of op over items, the
    two sides alternating input by input, so that both see the same drift."""
    clock = time.perf_counter
    spent = {change: 0.0, parent: 0.0}
    order = (change, parent) if change_first else (parent, change)
    for item in items:
        for kg in order:
            start = clock()
            op(kg, item)
            spent[kg] += clock() - start
        order = order[::-1]
    return spent[change], spent[parent]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent_src", type=Path, metavar="PARENT_SRC")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="haar3")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    change = load(HERE_SRC, "kgdecomp")
    parent = load(args.parent_src.resolve(), "kgdecomp_parent")
    inputs, check, op, passes, allowed = WORKLOADS[args.workload]
    items = inputs(change)
    tally = dict.fromkeys(allowed, 0)
    for i, item in enumerate(items):
        outcome = check(change, parent, item)
        kind = outcome.split(":")[0]
        if kind not in tally:
            print(f"input {i}: {outcome}", file=sys.stderr)
            return 1
        tally[kind] += 1
    print(", ".join(f"{kind} {count}" for kind, count in tally.items()), flush=True)
    ratios = []
    for r in range(args.rounds):
        new = base = 0.0
        for _ in range(passes):
            spent = one_round(change, parent, items, op, change_first=r % 2 == 0)
            new, base = new + spent[0], base + spent[1]
        ratios.append(new / base)
        print(f"round {r}  ratio {ratios[-1]:.3f}")
    print(
        f"median {statistics.median(ratios):.3f}  "
        f"range {min(ratios):.3f}-{max(ratios):.3f}  "
        f"({args.rounds} rounds of {passes * len(items)})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
