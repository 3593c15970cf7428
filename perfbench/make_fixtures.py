"""Writes the verify workload's committed fixtures.

    python3 perfbench/make_fixtures.py

For each n in bench.FIXTURE_POOL it decomposes Haar inputs drawn from
default_rng([FIXTURE_SEED, n, i]) and writes the matrix and v1 tree
documents to perfbench/fixtures/verify/. A tree that fails the audit is
not written. The n=4 trees take about ten seconds each.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402

FIXTURE_SEED = 20250917


def main() -> int:
    bench.FIXTURES.mkdir(parents=True, exist_ok=True)
    for n, count in bench.FIXTURE_POOL.items():
        for item in bench.haar_items(n, count, FIXTURE_SEED):
            index = int(item.name.rsplit("_", 1)[1])
            tree_doc = bench.decompose_op(item)
            verdict = bench.audit(item.matrix, n, tree_doc)
            if not verdict.ok:
                print(f"{item.name}: audit failed: {verdict.reasons}", file=sys.stderr)
                return 1
            matrix_path, tree_path = bench.fixture_paths(n, index)
            matrix_path.write_text(item.matrix_doc, encoding="utf-8")
            tree_path.write_text(tree_doc, encoding="utf-8")
            print(f"{tree_path.name}: E_a {verdict.ea:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
