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
from functools import lru_cache
from itertools import groupby
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
# dump_json is unused here since the tree writer fills its own
# templates; perfbench/spans.py still patches it at this name
from .fileio import (
    Verbatim,
    dump_json,
    entries_to_matrix,
    fill,
    is_json_number,
    parse_json,
    template,
)
# expm_skew is unused here since CartanExp blocks come from the torus;
# perfbench/spans.py still patches it at this name
from .linalg import _concatenate, _identity, expm_skew, su_defects

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
        subspace_residual: distance of the raw Cartan stage output from
            the Cartan span, before it is snapped onto the span; only
            Cartan factors carry one.
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
        optimizer_stats: (stage label, iteration count) pairs. The
            closed-form stages take no iterations, so decompose_full
            leaves it empty; the field stays so that v1 documents,
            which may carry counts, keep one shape.
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


@lru_cache(maxsize=64)
def _label_signs(basis_name: str, labels: Tuple[str, ...]) -> np.ndarray:
    """The signs rows of labels in the torus of basis_name, in their
    order, read-only: repeated labels repeat their row.

    Raises:
        BadLabelError: a label is not in the set; the message names it.
    """
    torus = cartan_torus(basis_name[0], int(basis_name[1:]))
    signs = torus.signs[torus.rows_of(labels)]
    signs.setflags(write=False)
    return signs


def _cartan_block(factor: Factor) -> np.ndarray:
    """exp(sum_i c_i word_i) of a CartanExp factor, as Q diag(e^{i phi}) Q^dag.

    Q is the basis of the factor's torus (basis.cartan_torus), where
    every word of its set is (i/2) diag(signs row), and phi = (1/2)
    sum_i c_i signs_i over the factor's labels, so repeated labels add
    their coefficients. The signs rows of a label list are cached.

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
    labels = tuple([label for label, _ in factor.coeffs])
    coeffs = np.array([c for _, c in factor.coeffs], dtype=float)
    phi = 0.5 * (coeffs @ _label_signs(factor.basis_name, labels))
    return (torus.q * np.exp(1j * phi)) @ torus.q_dag


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
    shape = np.asarray(factor.matrix).shape
    # a payload of another size would still reshape, onto the wrong qubits
    if shape != (size, size):
        raise DimensionMismatchError(
            f"{factor.kind.value} at level {level} needs a {size}x{size} payload,"
            f" got shape {shape}"
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
    so no word matrix is summed and no exponential is taken. On four or
    more qubits, each maximal run of two or more factors whose support
    (the prefix of qubits a factor covers) is below the register is
    first multiplied on a register of the run's largest support, the
    same way, and applied as one block (_fused), as simulators fuse
    gates; every factor passes _block's checks first.

    Raises:
        LevelExceedsRegisterError: if a factor does not fit.
        DimensionMismatchError: if a payload's size does not match its
            kind and level.
        BadLabelError: if a CartanExp label is not in its basis.
    """
    n = tree.n_total
    dim = 1 << n
    blocks = [_block(factor, n) for factor in tree.factors]
    # at n <= 3 a run holds 4 x 4 blocks at most, and folding gains nothing
    if n > 3:
        blocks = _fused(blocks, dim)
    return _apply(np.exp(1j * tree.phase) * _identity(dim), blocks)


def _apply(out: np.ndarray, blocks) -> np.ndarray:
    """out times I_left (x) block (x) I_right for each (block, first qubit)
    in turn: the block contracts the axis of its qubits, as a
    state-vector simulator applies a gate."""
    dim = len(out)
    for block, first in blocks:
        grouped = out.reshape(dim, 1 << first, len(block), -1)
        out = np.matmul(block.T, grouped).reshape(dim, dim)
    return out


def _fused(blocks: list, dim: int) -> list:
    """blocks with each maximal run of two or more whose support is below
    the dim-sized register replaced by the product of the run, taken on
    a register of its largest support with its own runs fused."""
    fused = []
    for small, run in groupby(blocks, key=lambda step: len(step[0]) << step[1] < dim):
        run = list(run)
        if small and len(run) > 1:
            size = max([len(block) << first for block, first in run])
            fused.append((_apply(_identity(size), _fused(run, size)), 0))
        else:
            fused.extend(run)
    return fused


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


# the walker lays a record out at depth 2 (in the factors list) and the
# report at depth 1. _RECORD is a record's place in _frame: its line break
# keeps the list one record per line; an encoded document holds no \x1e
_RECORD = Verbatim("\x1e\n")


@lru_cache(maxsize=64, typed=True)
def _payload_template(kind: FactorKind, level, shape: tuple) -> str:
    """The %-template of a payload record of this kind, level and payload
    shape; TypeError for a shape that is not 2-D."""
    record = {"kind": kind.value, "level_qubits": level, "entries": np.zeros(shape, complex)}
    return template(record, 2)[0]


@lru_cache(maxsize=64, typed=True)
def _cartan_template(level, basis, labels: tuple, residual: bool) -> str:
    """The %-template of a CartanExp record: its coefficients under
    labels, then a subspace residual if it has one."""
    record = {
        "kind": FactorKind.CARTAN_EXP.value,
        "level_qubits": level,
        "basis": basis,
        "coeffs": [[label, 0.0] for label in labels],
    }
    if residual:
        record["subspace_residual"] = 0.0
    return template(record, 2)[0]


@lru_cache(maxsize=64)
def _report_template(labels: tuple, optimizer_stats: tuple) -> str:
    """The %-template of a report block whose subspace_errors carry labels:
    approx_error, those errors and wall_time are its floats, and the
    (label, count) optimizer_stats are part of its text."""
    report = {
        "approx_error": 0.0,
        "subspace_errors": [[label, 0.0] for label in labels],
        "wall_time": 0.0,
        "optimizer_stats": [[label, int(count)] for label, count in optimizer_stats],
    }
    return template(report, 1)[0]


@lru_cache(maxsize=64, typed=True)
def _frame(n_total, report: Optional[str], records: bool) -> Tuple[str, str, str]:
    """The document's %-template around its records, with its phase as
    its first float and the report template (None for no report) in
    place: the text before the first record, between two, and after the
    last; with no records, the whole template and two empty strings."""
    text = template({
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "n_total": n_total,
        "phase": 0.0,
        "report": None if report is None else Verbatim(report),
        "factors": [_RECORD, _RECORD] if records else [],
    })[0]
    head, between, tail = text.split(_RECORD) if records else (text, "", "")
    return head, between, tail + "\n"


def serialize(tree: FactorTree) -> str:
    """Renders a factor tree as its text document.

    The document round-trips through deserialize to a tree with the same
    product within 1e-14 (floats carry 17 significant digits), and is
    laid out by fileio's one walker. Each record is a %-template cached
    per shape, (kind, level, payload shape) for a payload and (level,
    basis, labels, residual or not) for a CartanExp; the report block is
    one per (labels, optimizer_stats), and the frame around the records
    one per (n_total, report template, any records). The phase, the
    report's floats and every record's floats, in document order, are
    checked for finiteness once and formatted into the joined templates
    in one % call (fileio.fill).

    Raises:
        TypeError: a payload is not a 2-D array, a label, a basis or
            optimizer_stats is unhashable, or a level or n_total is a
            float (it would take a value of its own).
        ValueError: a value is not finite; the message names the first.
    """
    templates = []
    chunks = []
    for factor in tree.factors:
        if factor.kind is FactorKind.CARTAN_EXP:
            values = [float(c) for _, c in factor.coeffs]
            residual = factor.subspace_residual
            if residual is not None:
                values.append(float(residual))
            record = _cartan_template(
                factor.level_qubits,
                factor.basis_name,
                tuple([label for label, _ in factor.coeffs]),
                residual is not None,
            )
        else:
            matrix = np.asarray(factor.matrix, dtype=complex)
            values = matrix.ravel().view(float)
            record = _payload_template(factor.kind, factor.level_qubits, matrix.shape)
        templates.append(record)
        chunks.append(values)
    report = tree.report
    if report is None:
        report_text, report_values = None, []
    else:
        errors = report.subspace_errors
        report_text = _report_template(
            tuple([label for label, _ in errors]), report.optimizer_stats
        )
        report_values = [report.approx_error, *[v for _, v in errors], report.wall_time]
    head, between, tail = _frame(tree.n_total, report_text, bool(templates))
    return fill(
        head + between.join(templates) + tail,
        [[float(tree.phase)], report_values, *chunks],
    )


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
