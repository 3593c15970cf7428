"""Factor-tree data model: expansion, product evaluation, serialization.

A decomposition is an ordered left-to-right product of factors acting on
the first `level_qubits` positions of the register, padded with identity
on the trailing qubits, times one aggregated global phase. Recursion
strips the LAST qubit at every level, which is why a level-l SubUnitary
payload lives on l-1 qubits and a level-l LastQubit payload sits at
register position l.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

# build_kg_basis is unused here since Cartan labels are checked by
# is_cartan_label; perfbench/spans.py still patches it at this name
from .basis import build_kg_basis, cartan_torus, is_cartan_label
from .errors import (
    BadLabelError,
    DimensionMismatchError,
    LevelExceedsRegisterError,
    ParseError,
)
from .fileio import (
    complex_entries,
    dump_json,
    entries_to_matrix,
    is_json_number,
    parse_json,
)
# expm_skew is unused here since CartanExp blocks come from the torus;
# perfbench/spans.py still patches it at this name
from .linalg import expm_skew, su_defects

__all__ = [
    "FactorKind",
    "Factor",
    "DecompositionReport",
    "FactorTree",
    "expand",
    "product",
    "serialize",
    "deserialize",
    "factor_defects",
]

_FORMAT_NAME = "kgdecomp-tree"
_FORMAT_VERSION = 1


class FactorKind(str, Enum):
    SUB_UNITARY = "sub_unitary"
    LAST_QUBIT = "last_qubit"
    CARTAN_EXP = "cartan_exp"


@dataclass(frozen=True)
class Factor:
    """One term of the factored product.

    Attributes:
        kind: which of the three factor shapes this is.
        level_qubits: recursion level l; SubUnitary payloads live on l-1
            qubits (l may be n_total+1 for a payload covering the whole
            register, the two-qubit base case), LastQubit payloads are
            2x2 at position l, CartanExp generators live on l qubits.
        matrix: payload for SubUnitary / LastQubit.
        basis_name: Cartan basis identifier ("H3", "F4") for CartanExp.
        coeffs: labeled real coefficients over that basis for CartanExp.
        subspace_residual: pre-repair distance of the raw Cartan stage
            output from the Cartan span; only Cartan factors carry one.
    """

    kind: FactorKind
    level_qubits: int = 1
    matrix: Optional[np.ndarray] = None
    basis_name: Optional[str] = None
    coeffs: Optional[Tuple[Tuple[str, float], ...]] = None
    subspace_residual: Optional[float] = None


@dataclass(frozen=True)
class DecompositionReport:
    """Quality diagnostics attached to a factor tree.

    Attributes:
        approx_error: ||G - product||_F against the decomposed matrix.
        subspace_errors: (factor label, E_s) per Abelian factor, where
            E_s is the stacked-commutator metric of the raw element
            against its Cartan basis, before snap-to-span repair.
        wall_time: seconds spent in the decomposition.
        optimizer_stats: (stage label, iteration count) per Cartan stage.
            The closed-form stages take no iterations and record 0; the
            field stays so that v1 documents keep one shape.
    """

    approx_error: float
    subspace_errors: Tuple[Tuple[str, float], ...] = ()
    wall_time: float = 0.0
    optimizer_stats: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class FactorTree:
    """Ordered factors, the one global phase, and the quality report.

    `phase` is the only home of the global phase: the product is
    exp(i phase) times the left-to-right product of `factors`.
    """

    n_total: int
    phase: float
    factors: Tuple[Factor, ...]
    report: Optional[DecompositionReport] = None


def _cartan_block(factor: Factor) -> np.ndarray:
    """exp(sum_i c_i word_i) of a CartanExp factor, as Q diag(e^{i phi}) Q^dag.

    Q is the basis of the factor's torus (basis.cartan_torus), where
    every word of its set is (i/2) diag(signs row); repeated labels add
    their coefficients, and phi = (1/2) signs^T c.

    Raises:
        BadLabelError: the basis does not name H or F at the factor's
            level, or a label is not in that set; the message names it.
    """
    level = factor.level_qubits
    if factor.basis_name not in (f"H{level}", f"F{level}"):
        raise BadLabelError(
            f"basis {factor.basis_name!r} is not H{level} or F{level}"
        )
    torus = cartan_torus(factor.basis_name[0], level)
    labels = [label for label, _ in factor.coeffs]
    coeffs = np.bincount(
        torus.rows_of(labels),
        weights=[float(c) for _, c in factor.coeffs],
        minlength=len(torus.labels),
    )
    phi = 0.5 * (coeffs @ torus.signs)
    return (torus.q * np.exp(1j * phi)) @ torus.q.conj().T


def _block(factor: Factor, n_total: int) -> Tuple[np.ndarray, int]:
    """The factor's payload as a 2^k block and the first qubit it acts on.

    A level-l SubUnitary is its 2^(l-1) payload on qubit 0, a level-l
    LastQubit its 2x2 payload on qubit l-1, and a level-l CartanExp is
    exp(sum_i c_i word_i) on qubit 0, built from its torus
    (_cartan_block) with no word matrix and no exponential routine.

    Raises:
        LevelExceedsRegisterError: if the factor does not fit.
        DimensionMismatchError: if a payload's size does not match its
            kind and level.
        BadLabelError: if a CartanExp label is not in its basis.
    """
    level = factor.level_qubits
    top = n_total + 1 if factor.kind is FactorKind.SUB_UNITARY else n_total
    if level > top:
        raise LevelExceedsRegisterError(
            f"{factor.kind.value} at level {level} does not fit {n_total} qubits"
        )
    if factor.kind is FactorKind.CARTAN_EXP:
        return _cartan_block(factor), 0
    if factor.kind is FactorKind.SUB_UNITARY:
        size, first = 2 ** (level - 1), 0
    else:
        size, first = 2, level - 1
    # a payload of another size would still reshape, onto the wrong qubits
    if np.shape(factor.matrix) != (size, size):
        raise DimensionMismatchError(
            f"{factor.kind.value} at level {level} needs a {size}x{size} payload,"
            f" got shape {np.shape(factor.matrix)}"
        )
    return factor.matrix, first


def expand(factor: Factor, n_total: int) -> np.ndarray:
    """Expands one factor to the full 2^n_total register.

    A level-l SubUnitary maps to payload (x) I^(n_total-l+1); a level-l
    LastQubit to I^(l-1) (x) payload (x) I^(n_total-l); a level-l
    CartanExp to exp(sum_i c_i word_i) (x) I^(n_total-l). It is the
    one-factor `product`, the factor's block applied to an identity;
    `product` itself never builds this padded matrix.

    Raises:
        LevelExceedsRegisterError: if the factor does not fit.
        DimensionMismatchError: if a payload's size does not match its
            kind and level.
        BadLabelError: if a CartanExp label is not in its basis.
    """
    return product(FactorTree(n_total, 0.0, (factor,)))


def product(tree: FactorTree) -> np.ndarray:
    """Left-to-right product of the factors times the phase.

    Each factor is applied to the running product as a block on its own
    qubits, so no factor is padded to the full register. A CartanExp
    block is Q diag(e^{i phi}) Q^dag in the basis Q of its cached torus,
    so no word matrix is summed and no exponential is taken.

    Raises:
        LevelExceedsRegisterError: if a factor does not fit.
        DimensionMismatchError: if a payload's size does not match its
            kind and level.
        BadLabelError: if a CartanExp label is not in its basis.
    """
    dim = 2**tree.n_total
    out = np.exp(1j * tree.phase) * np.eye(dim, dtype=complex)
    for factor in tree.factors:
        # out @ (I_left (x) block (x) I_right): the block contracts the
        # axis of its qubits, as a state-vector simulator applies a gate
        block, first = _block(factor, tree.n_total)
        grouped = out.reshape(dim, 2**first, len(block), -1)
        out = np.matmul(block.T, grouped).reshape(dim, dim)
    return out


def factor_defects(factor: Factor) -> dict:
    """Named invariant defects of one factor, for verification reports.

    Returns `unitarity` and `det` for payload factors, both nonnegative
    with zero meaning clean, and an empty dict for Cartan factors, whose
    exponentials are special unitary by construction and whose labels
    `deserialize` has already checked.
    """
    if factor.kind is FactorKind.CARTAN_EXP:
        return {}
    unitarity, det = su_defects(factor.matrix)
    return {"unitarity": unitarity, "det": det}


def serialize(tree: FactorTree) -> str:
    """Renders a factor tree as its text document.

    The document round-trips through deserialize to a tree with the same
    product within 1e-14 (floats carry 17 significant digits).
    """
    records = []
    for factor in tree.factors:
        rec = {"kind": factor.kind.value, "level_qubits": factor.level_qubits}
        if factor.kind is FactorKind.CARTAN_EXP:
            rec["basis"] = factor.basis_name
            rec["coeffs"] = [[label, float(c)] for label, c in factor.coeffs]
            if factor.subspace_residual is not None:
                rec["subspace_residual"] = float(factor.subspace_residual)
        else:
            rec["entries"] = complex_entries(factor.matrix)
        records.append(rec)
    report = None
    if tree.report is not None:
        report = {
            "approx_error": tree.report.approx_error,
            "subspace_errors": [[label, v] for label, v in tree.report.subspace_errors],
            "wall_time": tree.report.wall_time,
            "optimizer_stats": [[label, int(v)] for label, v in tree.report.optimizer_stats],
        }
    doc = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "n_total": tree.n_total,
        "phase": float(tree.phase),
        "report": report,
        "factors": records,
    }
    return dump_json(doc) + "\n"


def _parse_factor(rec, where: str, n_total: int) -> Factor:
    if not isinstance(rec, dict):
        raise ParseError("factor record must be an object", where)
    try:
        kind = FactorKind(rec["kind"])
    except (KeyError, ValueError):
        raise ParseError(f"missing or unknown factor kind {rec.get('kind')!r}", where)
    level = rec.get("level_qubits", 1)
    if not is_json_number(level, integer=True) or level < 1:
        raise ParseError(f"bad level_qubits {level!r}", where)
    if kind is FactorKind.CARTAN_EXP:
        basis_name = rec.get("basis")
        coeffs = rec.get("coeffs")
        if not isinstance(basis_name, str) or not isinstance(coeffs, list):
            raise ParseError("cartan_exp record needs 'basis' and 'coeffs'", where)
        if not 2 <= level <= n_total:
            raise ParseError(
                f"cartan_exp level_qubits {level} outside [2, n_total = {n_total}]",
                where,
            )
        if basis_name not in (f"H{level}", f"F{level}"):
            raise ParseError(
                f"basis {basis_name!r} does not match level_qubits {level}", where
            )
        # a document declares its own level, so the label check builds no
        # basis: it costs O(level^2) per label, not the 4^level basis words
        parsed = []
        for idx, pair in enumerate(coeffs):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not isinstance(pair[0], str)
                or not is_json_number(pair[1])
            ):
                raise ParseError("coefficient is not a [label, value] pair",
                                 f"{where}.coeffs[{idx}]")
            if not is_cartan_label(pair[0], basis_name[0], level):
                raise ParseError(f"label {pair[0]!r} is not in basis {basis_name}",
                                 f"{where}.coeffs[{idx}]")
            parsed.append((pair[0], float(pair[1])))
        residual = rec.get("subspace_residual")
        if residual is not None and not is_json_number(residual):
            raise ParseError("subspace_residual must be numeric", where)
        return Factor(
            kind=kind,
            level_qubits=level,
            basis_name=basis_name,
            coeffs=tuple(parsed),
            subspace_residual=None if residual is None else float(residual),
        )
    # checked before the entries are read: a level-l SubUnitary covers
    # l - 1 qubits, up to the whole register, and a LastQubit sits at l
    top = n_total + 1 if kind is FactorKind.SUB_UNITARY else n_total
    if level > top:
        raise ParseError(f"{kind.value} level {level} does not fit n_total = {n_total}", where)
    qubits = level - 1 if kind is FactorKind.SUB_UNITARY else 1
    matrix = entries_to_matrix(rec.get("entries", []), qubits, f"{where}.entries")
    return Factor(kind=kind, level_qubits=level, matrix=matrix)


def _parse_report(raw) -> DecompositionReport:
    if not isinstance(raw, dict):
        raise ParseError("malformed report block", "report")
    for key, default in (("approx_error", None), ("wall_time", 0.0)):
        if not is_json_number(raw.get(key, default)):
            raise ParseError(f"{key} must be numeric", f"report.{key}")

    def labeled(key: str, cast) -> tuple:
        pairs = raw.get(key, [])
        if not isinstance(pairs, list):
            raise ParseError(f"{key} must be a list", f"report.{key}")
        for idx, pair in enumerate(pairs):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not isinstance(pair[0], str)
                or not is_json_number(pair[1], integer=cast is int)
            ):
                raise ParseError("entry is not a [label, value] pair",
                                 f"report.{key}[{idx}]")
        return tuple((label, cast(v)) for label, v in pairs)

    return DecompositionReport(
        approx_error=float(raw["approx_error"]),
        subspace_errors=labeled("subspace_errors", float),
        wall_time=float(raw.get("wall_time", 0.0)),
        optimizer_stats=labeled("optimizer_stats", int),
    )


def deserialize(document: str) -> FactorTree:
    """Parses a factor-tree document back into a FactorTree.

    A `global_phase` record, which version-1 documents may hold, is folded
    into `tree.phase`; the phase is central, so the product is unchanged.

    Raises:
        ParseError: with a location string, on any malformed content.
    """
    doc = parse_json(document)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_NAME:
        raise ParseError(f"document is not a {_FORMAT_NAME} file", "top level")
    if doc.get("version") != _FORMAT_VERSION:
        raise ParseError(f"unsupported version {doc.get('version')!r}", "version")
    n_total = doc.get("n_total")
    phase = doc.get("phase")
    if not is_json_number(n_total, integer=True) or n_total < 1:
        raise ParseError(f"bad n_total {n_total!r}", "n_total")
    if not is_json_number(phase):
        raise ParseError("phase must be numeric", "phase")
    records = doc.get("factors")
    if not isinstance(records, list):
        raise ParseError("'factors' must be a list", "factors")
    phase = float(phase)
    factors = []
    for i, rec in enumerate(records):
        where = f"factors[{i}]"
        if isinstance(rec, dict) and rec.get("kind") == "global_phase":
            phi = rec.get("phi")
            if not is_json_number(phi):
                raise ParseError("global_phase record needs numeric 'phi'", where)
            phase += float(phi)
        else:
            factors.append(_parse_factor(rec, where, n_total))
    raw_report = doc.get("report")
    report = None if raw_report is None else _parse_report(raw_report)
    return FactorTree(n_total=n_total, phase=phase, factors=tuple(factors), report=report)
