"""Haar sampling and benchmarks that pool the decomposition error metrics.

E_a is the Frobenius distance between the input and the expanded factor
product, norm(g - product(tree)). E_s measures how far an Abelian-slot
generator sits from truly commuting with its target span: the
root-mean-square commutator norm against the span's basis words
(`linalg.commutation_defect`), evaluated on the raw (pre-projection)
generator so projection cannot hide a violation. Both arrive in each
tree's report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .engine import decompose_full
from .errors import KgDecompError
from .factors import FactorTree
from .linalg import _det

__all__ = [
    "haar_special_unitary",
    "run_benchmark",
    "BenchmarkResult",
    "BenchmarkSummary",
    "format_table",
    "summary_to_dict",
]


def haar_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed element of SU(2^n).

    Ginibre matrix -> QR -> column phase fix (making the distribution
    Haar on U(2^n)) -> divide by det^(1/N) to land in SU(2^n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    dim = 2**n
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    # numpy's complex power: Python's differs in the last bits, and the
    # seeded draws must not move
    return q * np.power(_det(q), -1.0 / dim)


@dataclass(frozen=True)
class BenchmarkResult:
    """Outcome of one benchmark sample: the tree (its report holds E_a and
    E_s) on success, or tree None and the error in message."""

    index: int
    wall_time: float
    message: str = ""
    tree: Optional[FactorTree] = None


@dataclass(frozen=True)
class BenchmarkSummary:
    """Aggregates over a batch of Haar samples at fixed n.

    Subspace statistics pool every Abelian factor of every successful
    tree (three per decomposition level), since the per-slot values are
    identically distributed diagnostics of the same mechanism.
    """

    n: int
    count: int
    failures: int
    mean_approx_error: float
    std_approx_error: float
    mean_subspace_error: float
    std_subspace_error: float
    mean_wall_time: float
    results: Tuple[BenchmarkResult, ...] = field(repr=False, default=())


def _summarize(n: int, count: int, results: Sequence[BenchmarkResult]) -> BenchmarkSummary:
    ok = [r for r in results if r.tree is not None]
    ea = np.array([r.tree.report.approx_error for r in ok], dtype=float)
    es = np.array(
        [v for r in ok for _, v in r.tree.report.subspace_errors], dtype=float
    )
    wall = np.array([r.wall_time for r in ok], dtype=float)
    nan = float("nan")
    return BenchmarkSummary(
        n=n,
        count=count,
        failures=count - len(ok),
        mean_approx_error=float(ea.mean()) if ea.size else nan,
        std_approx_error=float(ea.std()) if ea.size else nan,
        mean_subspace_error=float(es.mean()) if es.size else nan,
        std_subspace_error=float(es.std()) if es.size else nan,
        mean_wall_time=float(wall.mean()) if wall.size else nan,
        results=tuple(results),
    )


def run_benchmark(n: int, count: int, seed: int = 0) -> BenchmarkSummary:
    """Decomposes `count` Haar samples from SU(2^n) and aggregates errors.

    Sample i draws from default_rng(seed + i), so a sample does not
    depend on the batch around it. Failures (a failed Cartan stage or
    any other library error) are counted, not raised. Each successful
    result keeps its factor tree.
    """

    def run_one(index: int) -> BenchmarkResult:
        g = haar_special_unitary(n, np.random.default_rng(seed + index))
        start = time.perf_counter()
        try:
            tree = decompose_full(g, n)
        except KgDecompError as exc:
            return BenchmarkResult(
                index=index,
                wall_time=time.perf_counter() - start,
                message=f"{type(exc).__name__}: {exc}",
            )
        return BenchmarkResult(
            index=index, wall_time=time.perf_counter() - start, tree=tree
        )

    return _summarize(n, count, [run_one(i) for i in range(count)])


def format_table(summaries: Sequence[BenchmarkSummary]) -> str:
    """Plain-text table over one or more benchmark summaries."""
    header = (
        f"{'n':>3} {'count':>6} {'mean E_a':>12} {'mean E_s':>12} "
        f"{'sigma E_s':>12} {'mean sec':>10} {'failures':>9}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.n:>3} {s.count:>6} {s.mean_approx_error:>12.3e} "
            f"{s.mean_subspace_error:>12.3e} {s.std_subspace_error:>12.3e} "
            f"{s.mean_wall_time:>10.3f} {s.failures:>9}"
        )
    return "\n".join(lines)


def _finite_or_none(x: float):
    return float(x) if np.isfinite(x) else None


def summary_to_dict(summary: BenchmarkSummary) -> dict:
    """JSON-ready view of a summary; non-finite statistics become null."""
    return {
        "n": summary.n,
        "count": summary.count,
        "failures": summary.failures,
        "mean_approx_error": _finite_or_none(summary.mean_approx_error),
        "std_approx_error": _finite_or_none(summary.std_approx_error),
        "mean_subspace_error": _finite_or_none(summary.mean_subspace_error),
        "std_subspace_error": _finite_or_none(summary.std_subspace_error),
        "mean_wall_time": _finite_or_none(summary.mean_wall_time),
        "samples": [
            {
                "index": r.index,
                "ok": r.tree is not None,
                "approx_error": None if r.tree is None
                else _finite_or_none(r.tree.report.approx_error),
                "subspace_errors": [] if r.tree is None
                else [[label, v] for label, v in r.tree.report.subspace_errors],
                "wall_time": r.wall_time,
                "message": r.message,
            }
            for r in summary.results
        ],
    }
