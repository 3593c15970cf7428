"""Reads seeded spoiled documents with this checkout's kgdecomp and another.

Each document is a committed `perfbench/fixtures/verify` tree or matrix
(n = 3 and 4), picked at random and spoiled with one to three faults.
Each fault lands at a random place on a random walk from the top of the
document down to a leaf. It puts NaN, Infinity, -Infinity, true, false,
a string, null, a 400-digit integer, an empty list or an empty object
there, shortens or lengthens a list (most often a pair), or deletes a
key. Both checkouts are imported side by side, as tests/interleave.py
imports them: this one from the `src/` next to this file, the other from
PARENT_SRC under the name `kgdecomp_parent`.

    PYTHONPATH=src python3 tests/reader_fuzz.py PARENT_SRC [--seed S] [--count N]

reads every document with deserialize or matrix_from_document on both
sides. The two outcomes must match: the exception's class, message and
location, or everything that was read. For a tree, that is n_total, the
phase, every report field, and each factor's kind, level, payload bytes,
basis, coefficients and residual. For a matrix, it is n and the matrix
bytes. The script prints `same N, differs K`, then the first cases that
differ, and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

from interleave import FIXTURES, HERE_SRC, load

# name: the value a fault puts in place
VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "true": True,
    "false": False,
    "string": "0.5",
    "null": None,
    "huge-int": 10**400,
    "empty-list": [],
    "empty-object": {},
}
FAULTS = (*VALUES, "short", "long", "delete")
# the most faults one document gets
MOST = 3
BRANCH = 4
SHOWN = 5


class Case(NamedTuple):
    index: int
    fixture: str
    faults: tuple
    text: str


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _walk(doc, rng: random.Random) -> list:
    """The paths of a random walk from the top of doc down to a leaf. An
    object's key that holds a non-empty list or object is taken BRANCH
    times as often as one that holds a value, so that most walks reach
    the records and their entries."""
    paths = []
    node = doc
    while isinstance(node, (dict, list)) and node:
        if isinstance(node, dict):
            keys = list(node)
            weights = [BRANCH if isinstance(node[k], (dict, list)) and node[k] else 1
                       for k in keys]
            key = rng.choices(keys, weights)[0]
        else:
            key = rng.randrange(len(node))
        paths.append((*paths[-1], key) if paths else (key,))
        node = node[key]
    return paths


def _fits(doc, path, fault: str) -> bool:
    """Whether fault can be made at path: shortening takes a non-empty
    list, lengthening any list, deleting an object's key."""
    if fault == "short":
        return type(_at(doc, path)) is list and len(_at(doc, path)) > 0
    if fault == "long":
        return type(_at(doc, path)) is list
    if fault == "delete":
        return type(_at(doc, path[:-1])) is dict
    return True


def spoil(doc, rng: random.Random) -> str:
    """Makes one seeded fault in doc, in place, and names it; a document
    whose every key is deleted is left as it is."""
    while doc:
        fault = rng.choice(FAULTS)
        for _ in range(20):
            places = [path for path in _walk(doc, rng) if _fits(doc, path, fault)]
            if places:
                break
        else:
            continue
        path = rng.choice(places)
        parent, key = _at(doc, path[:-1]), path[-1]
        if fault == "short":
            parent[key] = parent[key][:-1]
        elif fault == "long":
            parent[key] = [*parent[key], 0.5]
        elif fault == "delete":
            del parent[key]
        else:
            parent[key] = VALUES[fault]
        return f"{fault} at {'.'.join(map(str, path))}"
    return "nothing left"


def fixtures() -> list:
    """(file name, text) of each committed verify fixture."""
    return [(path.name, path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("*.json"))]


def spoiled_documents(seed: int, count: int) -> Iterator[Case]:
    """count spoiled fixture documents, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    texts = fixtures()
    for index in range(count):
        fixture, text = rng.choice(texts)
        doc = json.loads(text)
        faults = tuple([spoil(doc, rng) for _ in range(rng.randint(1, MOST))])
        yield Case(index, fixture, faults, json.dumps(doc))


def read(kg, case: Case):
    """The tree or the (n, matrix) that kg reads from the case's document."""
    if case.fixture.endswith(".tree.json"):
        return kg.deserialize(case.text)
    return kg.fileio.matrix_from_document(case.text)


def outcome(kg, case: Case) -> str:
    """What kg makes of the case's document, as comparable text: scalars
    by repr, which tells -0.0 from 0.0, and payloads by their bytes."""
    try:
        got = read(kg, case)
    except Exception as exc:  # the failure itself is what gets compared
        message = getattr(exc, "message", str(exc))
        return repr(("raised", type(exc).__name__, message, getattr(exc, "location", None)))
    if isinstance(got, tuple):
        n, matrix = got
        return repr(("matrix", n, matrix.shape, matrix.dtype.str, matrix.tobytes()))
    report = None if got.report is None else dataclasses.astuple(got.report)
    factors = [
        (f.kind.value, f.level_qubits, None if f.matrix is None else
         (f.matrix.shape, f.matrix.dtype.str, f.matrix.tobytes()),
         f.basis_name, f.coeffs, f.subspace_residual)
        for f in got.factors
    ]
    return repr(("tree", got.n_total, got.phase, report, factors))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent_src", type=Path, metavar="PARENT_SRC")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=5000)
    args = parser.parse_args(argv)
    change = load(HERE_SRC, "kgdecomp")
    parent = load(args.parent_src.resolve(), "kgdecomp_parent")
    same = 0
    differ = []
    for case in spoiled_documents(args.seed, args.count):
        ours, theirs = outcome(change, case), outcome(parent, case)
        if ours == theirs:
            same += 1
        else:
            differ.append((case, ours, theirs))
    print(f"same {same}, differs {len(differ)}")
    for case, ours, theirs in differ[:SHOWN]:
        print(f"case {case.index} {case.fixture}: {'; '.join(case.faults)}")
        print(f"  change: {ours[:300]}")
        print(f"  parent: {theirs[:300]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
