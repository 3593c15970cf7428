"""Command-line interface.

Subcommands:
    decompose    factor a matrix file into a factor-tree file
    verify       recheck a tree against its source matrix
    bench        Haar-random benchmark at fixed qubit count
    compare-bch  involution split vs truncated-BCH split on one input
    basis        dump the recursive basis label sets

Exit codes: 0 success, 1 verification, reconstruction or generic
failure, 2 unreadable or malformed input, an unwritable output path or a
bad option value, 3 input not special unitary (and --repair not given),
4 a Cartan stage or the root search did not converge.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .basis import build_kg_basis
from .bch import check_order, solve_bch_split
from .config import Tolerances
from .engine import compute_m, decompose_full, residual_k, validate_special_unitary
from .errors import (
    DimensionMismatchError,
    KgDecompError,
    NotUnitaryError,
    OptimizerFailedError,
    OrderTooHighError,
    ParseError,
    RootSearchFailedError,
    SubspaceViolationError,
)
from .factors import deserialize, factor_defects, product, serialize
from .fileio import dump_json, matrix_from_document
from .involutions import AxisInvolution
from .linalg import _norm, expm_skew, nearest_special_unitary, project_onto_span
from .metrics import format_table, run_benchmark, summary_to_dict

__all__ = [
    "main",
    "entrypoint",
    "cmd_decompose",
    "cmd_verify",
    "cmd_bench",
    "cmd_compare_bch",
    "cmd_basis",
]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_SU = 3
EXIT_NO_CONVERGENCE = 4


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror or exc}", location=path)


def cmd_decompose(args) -> int:
    n, g_raw = matrix_from_document(_read_text(args.input))
    if n < 2:
        raise DimensionMismatchError("decomposition needs n >= 2")
    g = g_raw
    repair_distance = None
    if args.repair:
        g, _ = nearest_special_unitary(g_raw)
        repair_distance = _norm(g - g_raw)
    else:
        try:
            validate_special_unitary(g_raw)
        except NotUnitaryError as exc:
            raise NotUnitaryError(
                f"{exc}; rerun with --repair to project it"
            ) from exc

    created = False
    if args.output:
        # an unwritable path fails here, before the decomposition runs;
        # mode "a" leaves an existing file as it is
        created = not os.path.exists(args.output)
        try:
            open(args.output, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot write [{args.output}]: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_PARSE
    try:
        tree = decompose_full(g, n, Tolerances(args.tol_reconstruct))
    except BaseException:
        if created:
            os.remove(args.output)
        raise
    document = serialize(tree)
    report = tree.report

    summary_stream = sys.stdout
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
        except OSError as exc:
            print(f"cannot write [{args.output}]: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_PARSE
    else:
        print(document)
        summary_stream = sys.stderr

    print(f"n = {n}, factors = {len(tree.factors)}", file=summary_stream)
    print(f"E_a = {report.approx_error:.6e}", file=summary_stream)
    for label, value in report.subspace_errors:
        print(f"E_s {label} = {value:.6e}", file=summary_stream)
    if repair_distance is not None:
        print(f"repair distance = {repair_distance:.6e}", file=summary_stream)
        raw_error = _norm(g_raw - product(tree))
        print(f"E_a vs raw input = {raw_error:.6e}", file=summary_stream)
    print(f"wall time = {report.wall_time:.3f} s", file=summary_stream)
    if args.output:
        print(f"wrote {args.output}", file=summary_stream)
    return EXIT_OK


def cmd_verify(args) -> int:
    n, g = matrix_from_document(_read_text(args.matrix))
    tree = deserialize(_read_text(args.tree))
    if tree.n_total != n:
        raise DimensionMismatchError(
            f"tree is for n = {tree.n_total}, matrix file has n = {n}"
        )
    tols = Tolerances(args.tol_reconstruct)
    threshold = tols.reconstruct_bound(tree.n_total)
    error = _norm(g - product(tree))
    print(f"E_a = {error:.6e} (threshold {threshold:.6e})")

    worst_defect = 0.0
    for index, factor in enumerate(tree.factors):
        for name, value in factor_defects(factor).items():
            if value > tols.structure * 2**n:
                print(f"factor {index}: {name} defect {value:.3e}")
                worst_defect = max(worst_defect, value)

    if error <= threshold and worst_defect == 0.0:
        print("VERIFY OK")
        return EXIT_OK
    print("VERIFY FAIL")
    return EXIT_FAIL


def cmd_bench(args) -> int:
    summary = run_benchmark(n=args.n, count=args.count, seed=args.seed)
    if args.json:
        print(dump_json(summary_to_dict(summary)))
    else:
        print(format_table([summary]))
    if summary.failures > 0:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_compare_bch(args) -> int:
    n, g = matrix_from_document(_read_text(args.input))
    # at n = 2 the seed sets M_2, K_2 are not theta_Z's eigenspaces, so
    # the two splits would land in different subspaces
    if n < 3:
        raise DimensionMismatchError("comparison needs n >= 3")

    kg = build_kg_basis(n)
    inv = AxisInvolution(n, "Z")
    m_inv = compute_m(g, inv)
    k0 = residual_k(g, m_inv)
    inv_error = _norm(g - k0 @ expm_skew(m_inv.matrix))
    m_norm = _norm(m_inv.matrix)
    print(f"involution: reconstruction = {inv_error:.6e}, |m| = {m_norm:.6e}")

    if m_norm > args.max_norm:
        print(
            f"|m| = {m_norm:.3e} exceeds --max-norm {args.max_norm:.3e}; "
            "the truncated series is not meaningful there",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE

    k_elt, m_elt, residual = solve_bch_split(g, kg.k_set, kg.m_set, args.order)
    m_inv_coords, _ = project_onto_span(m_inv.matrix, kg.m_set)
    gap = _norm(np.asarray(m_elt.coords) - m_inv_coords)
    print(
        f"bch[order={args.order}]: reconstruction = {residual:.6e}, "
        f"m-coordinate gap = {gap:.6e}, k off-span = {k_elt.residual_norm:.6e}"
    )
    return EXIT_OK


def cmd_basis(args) -> int:
    kg = build_kg_basis(args.n)
    sets = (
        ("M", kg.m_set),
        ("K", kg.k_set),
        ("K0", kg.k0_set),
        ("K1", kg.k1_set),
        ("H", kg.h_set),
        ("F", kg.f_set),
    )
    wanted = None if args.set == "all" else args.set
    for name, words in sets:
        if wanted is not None and name != wanted:
            continue
        for word in words:
            print(f"{name} {word.label}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgdecomp",
        description="Recursive Cartan factorization of special unitaries.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_dec = subparsers.add_parser(
        "decompose", help="factor a matrix file into a factor tree"
    )
    p_dec.add_argument("input", help="matrix document (JSON with n, entries)")
    p_dec.add_argument("-o", "--output",
                       help="tree output path (default: stdout)")
    p_dec.add_argument("--repair", action="store_true",
                       help="project the input to the nearest special "
                            "unitary before decomposing")
    p_dec.add_argument("--tol-reconstruct", type=float,
                       default=Tolerances.reconstruct,
                       help="per-level reconstruction bound; E_a above "
                            "it times max(n-2, 1) fails (default 1e-9)")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = subparsers.add_parser(
        "verify", help="recheck a factor tree against its source matrix"
    )
    p_ver.add_argument("matrix", help="matrix document")
    p_ver.add_argument("tree", help="factor tree document")
    p_ver.add_argument("--tol-reconstruct", type=float,
                       default=Tolerances.reconstruct,
                       help="per-level reconstruction bound (default 1e-9)")
    p_ver.set_defaults(func=cmd_verify)

    p_bench = subparsers.add_parser(
        "bench", help="decompose Haar-random samples and aggregate errors"
    )
    p_bench.add_argument("--n", type=int, required=True,
                         help="qubit count, at least 2")
    p_bench.add_argument("--count", type=int, required=True,
                         help="number of samples")
    p_bench.add_argument("--json", action="store_true",
                         help="emit the summary as JSON instead of a table")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="sample i draws from default_rng(seed + i) "
                              "(default 0)")
    p_bench.set_defaults(func=cmd_bench)

    p_cmp = subparsers.add_parser(
        "compare-bch",
        help="compare the involution split against the truncated-BCH split",
    )
    p_cmp.add_argument("input", help="matrix document")
    p_cmp.add_argument("--order", type=int, default=6,
                       help="BCH truncation order, at most 8 (default 6)")
    p_cmp.add_argument("--max-norm", type=float, default=0.5,
                       help="refuse inputs whose m-norm exceeds this "
                            "finite, positive bound (default 0.5)")
    p_cmp.set_defaults(func=cmd_compare_bch)

    p_basis = subparsers.add_parser(
        "basis", help="print the recursive basis label sets"
    )
    p_basis.add_argument("--n", type=int, required=True,
                         help="qubit count, at least 2")
    p_basis.add_argument("--set", default="all",
                         choices=["all", "M", "K", "K0", "K1", "H", "F"],
                         help="restrict to one label set")
    p_basis.set_defaults(func=cmd_basis)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # option values are checked before any input is read or any work runs
    for name, low in (("n", 2), ("count", 0), ("seed", 0)):
        value = getattr(args, name, low)
        if value < low:
            parser.error(f"--{name} must be at least {low}, got {value}")
    if hasattr(args, "order"):
        try:
            check_order(args.order)
        except (ValueError, OrderTooHighError) as exc:
            parser.error(f"--order: {exc}")
    # `m_norm > nan` is false, so a NaN bound would switch the guard off
    if hasattr(args, "max_norm") and not (
        np.isfinite(args.max_norm) and args.max_norm > 0
    ):
        parser.error(f"--max-norm must be finite and positive, got {args.max_norm}")
    if hasattr(args, "tol_reconstruct"):
        try:
            Tolerances(args.tol_reconstruct)
        except ValueError as exc:
            parser.error(f"--tol-reconstruct: {exc}")
    try:
        return args.func(args)
    except ParseError as exc:
        where = f" [{exc.location}]" if exc.location else ""
        print(f"parse error{where}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatchError as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotUnitaryError as exc:
        print(f"input is not special unitary: {exc}", file=sys.stderr)
        return EXIT_NOT_SU
    except (OptimizerFailedError, RootSearchFailedError,
            SubspaceViolationError) as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except KgDecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
