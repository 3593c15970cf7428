"""Factor-tree data model: expansion, product evaluation, serialization.

A decomposition is an ordered left-to-right product of factors acting on
the first `level_qubits` positions of the register, padded with identity
on the trailing qubits, times one aggregated global phase. Recursion
strips the LAST qubit at every level, which is why a level-l SubUnitary
payload lives on l-1 qubits and a level-l LastQubit payload sits at
register position l.

A document is read in one pass (deserialize): each record, payload
entries included, is checked in document order, building no location
string unless it fails, so the pass that finds the first fault names it;
the entries of all payloads are then read into one array, of which each
payload matrix is a view. `product` keeps one cached frame per CartanExp
label set: the torus basis, its adjoint and half the signs rows of the
labels.
"""

from __future__ import annotations

import sys
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
    check_pairs,
    dump_json,
    fill,
    is_json_number,
    pairs_values,
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
# the largest n_total whose 2^n x 2^n complex register, 16 * 4^n bytes,
# stays within sys.maxsize (29 on a 64-bit build)
_MAX_QUBITS = (sys.maxsize.bit_length() - 5) // 2


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


@lru_cache(maxsize=64, typed=True)
def _cartan_frame(
    basis_name: str, level: int, labels: Tuple[str, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, q_dag, half_signs) of a CartanExp factor: the basis of its torus
    (basis.cartan_torus), its adjoint, and half the signs rows of labels
    in their order, read-only; repeated labels repeat their row.

    Raises:
        BadLabelError: the basis does not name H or F at level, or a
            label is not in that set; the message names it.
    """
    if basis_name not in (f"H{level}", f"F{level}"):
        raise BadLabelError(f"basis {basis_name!r} is not H{level} or F{level}")
    torus = cartan_torus(basis_name[0], level)
    half_signs = 0.5 * torus.signs[torus.rows_of(labels)]
    half_signs.setflags(write=False)
    return torus.q, torus.q_dag, half_signs


def _cartan_block(factor: Factor) -> np.ndarray:
    """exp(sum_i c_i word_i) of a CartanExp factor, as Q diag(e^{i phi}) Q^dag.

    Q is the basis of the factor's torus, where every word of its set is
    (i/2) diag(signs row), and phi = (1/2) sum_i c_i signs_i over the
    factor's labels, so repeated labels add their coefficients. Q, Q^dag
    and half the signs rows are cached per (basis, level, labels); the
    halving is exact, so phi has the bits of 0.5 (c . signs).

    Raises:
        BadLabelError: the basis does not name H or F at the factor's
            level, or a label is not in that set; the message names it.
    """
    labels = tuple([label for label, _ in factor.coeffs])
    q, q_dag, half_signs = _cartan_frame(factor.basis_name, factor.level_qubits, labels)
    phi = np.array([c for _, c in factor.coeffs], dtype=float) @ half_signs
    return (q * np.exp(1j * phi)) @ q_dag


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


def _labels(pairs, where) -> tuple:
    """The labels of (label, value) pairs. A label that is not a str would
    be laid out as a value, so TypeError names the first such and its
    path, where() + [j]; where() is called only then."""
    labels = tuple([label for label, _ in pairs])
    for j, label in enumerate(labels):
        if not isinstance(label, str):
            raise TypeError(f"label {label!r} at {where()}[{j}] is not a str")
    return labels


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
    one per (n_total, report template, any records). Every label must be
    a str, and is checked before any record is filled. The phase, the
    report's floats and every record's floats, in document order, are
    checked for finiteness once and formatted into the joined templates
    in one % call (fileio.fill).

    Raises:
        TypeError: a label is not a str (the message names it and its
            path, such as factors[4].coeffs[1] or
            report.optimizer_stats[0]), a payload is not a 2-D array, a
            basis or optimizer_stats is unhashable, or a level or
            n_total is a float (it would take a value of its own).
        ValueError: a value is not finite; the message names the first.
    """
    templates = []
    chunks = []
    for i, factor in enumerate(tree.factors):
        if factor.kind is FactorKind.CARTAN_EXP:
            labels = _labels(factor.coeffs, lambda: f"factors[{i}].coeffs")
            values = [float(c) for _, c in factor.coeffs]
            residual = factor.subspace_residual
            if residual is not None:
                values.append(float(residual))
            record = _cartan_template(
                factor.level_qubits, factor.basis_name, labels, residual is not None
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
        errors, stats = report.subspace_errors, report.optimizer_stats
        labels = _labels(errors, lambda: "report.subspace_errors")
        _labels(stats, lambda: "report.optimizer_stats")
        report_text = _report_template(labels, stats)
        report_values = [report.approx_error, *[v for _, v in errors], report.wall_time]
    head, between, tail = _frame(tree.n_total, report_text, bool(templates))
    return fill(
        head + between.join(templates) + tail,
        [[float(tree.phase)], report_values, *chunks],
    )


# The reader tests a parsed JSON value by its exact type: json.loads yields
# only plain int, float and bool (bool, an int subclass, is no number here)
_KINDS = {kind.value: kind for kind in FactorKind}


def _cartan_factor(rec: dict, i: int, level: int, n_total: int) -> Factor:
    """The CartanExp factor of record i, whose kind and level are checked."""
    basis_name = rec.get("basis")
    coeffs = rec.get("coeffs")
    if type(basis_name) is not str or type(coeffs) is not list:
        raise ParseError("cartan_exp record needs 'basis' and 'coeffs'", f"factors[{i}]")
    if not 2 <= level <= n_total:
        raise ParseError(
            f"cartan_exp level_qubits {level} outside [2, n_total = {n_total}]",
            f"factors[{i}]",
        )
    if basis_name not in (f"H{level}", f"F{level}"):
        raise ParseError(
            f"basis {basis_name!r} does not match level_qubits {level}", f"factors[{i}]"
        )
    # a document declares its own level, so the label check builds no
    # basis: it costs O(level^2) per label, not the 4^level basis words
    family = basis_name[0]
    parsed = []
    for j, pair in enumerate(coeffs):
        if (
            type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) is not str
            or not is_json_number(pair[1])
        ):
            raise ParseError("coefficient is not a [label, value] pair",
                             f"factors[{i}].coeffs[{j}]")
        label, value = pair
        if not is_cartan_label(label, family, level):
            raise ParseError(f"label {label!r} is not in basis {basis_name}",
                             f"factors[{i}].coeffs[{j}]")
        parsed.append((label, float(value)))
    residual = rec.get("subspace_residual")
    if residual is not None and not is_json_number(residual):
        raise ParseError("subspace_residual must be numeric", f"factors[{i}]")
    return Factor(
        kind=FactorKind.CARTAN_EXP,
        level_qubits=level,
        basis_name=basis_name,
        coeffs=tuple(parsed),
        subspace_residual=None if residual is None else float(residual),
    )


def _report_pairs(raw: dict, key: str, is_value) -> list:
    """The [label, value] pairs under raw[key] (none if it is missing);
    ParseError names a value that is not a list, or the first pair that
    is not a str label and a value that passes is_value."""
    pairs = raw.get(key, [])
    if type(pairs) is not list:
        raise ParseError(f"{key} must be a list", f"report.{key}")
    for j, pair in enumerate(pairs):
        if (
            type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) is not str
            or not is_value(pair[1])
        ):
            raise ParseError("entry is not a [label, value] pair", f"report.{key}[{j}]")
    return pairs


def _parse_report(raw) -> DecompositionReport:
    if type(raw) is not dict:
        raise ParseError("malformed report block", "report")
    approx_error = raw.get("approx_error")
    wall_time = raw.get("wall_time", 0.0)
    for key, value in (("approx_error", approx_error), ("wall_time", wall_time)):
        if not is_json_number(value):
            raise ParseError(f"{key} must be numeric", f"report.{key}")
    errors = _report_pairs(raw, "subspace_errors", is_json_number)
    stats = _report_pairs(raw, "optimizer_stats", lambda v: type(v) is int)
    return DecompositionReport(
        approx_error=float(approx_error),
        subspace_errors=tuple([(label, float(v)) for label, v in errors]),
        wall_time=float(wall_time),
        optimizer_stats=tuple([(label, v) for label, v in stats]),
    )


def deserialize(document: str) -> FactorTree:
    """Parses a factor-tree document back into a FactorTree.

    The records are checked one by one in document order, the entries of
    each payload record with them, so the first fault in the document is
    the one named; the entries of all payload records are then read in
    one pass into one array, of which each payload is a view.

    A `global_phase` record, which version-1 documents may hold, is folded
    into `tree.phase`; the phase is central, so the product is unchanged.
    `version` must be the integer 1, and `n_total` an integer from 1 to
    29 on a 64-bit build, the largest register whose 2^n x 2^n complex
    matrix stays within sys.maxsize bytes.

    Raises:
        ParseError: with a location string, on any malformed content.
    """
    doc = parse_json(document)
    if type(doc) is not dict or doc.get("format") != _FORMAT_NAME:
        raise ParseError(f"document is not a {_FORMAT_NAME} file", "top level")
    version = doc.get("version")
    # exact: true and 1.0 compare equal to 1
    if type(version) is not int or version != _FORMAT_VERSION:
        raise ParseError(f"unsupported version {version!r}", "version")
    n_total = doc.get("n_total")
    phase = doc.get("phase")
    if type(n_total) is not int or n_total < 1:
        raise ParseError(f"bad n_total {n_total!r}", "n_total")
    if n_total > _MAX_QUBITS:
        raise ParseError(
            f"n_total above {_MAX_QUBITS}: a 2^n x 2^n complex register "
            "passes sys.maxsize bytes",
            "n_total",
        )
    if not is_json_number(phase):
        raise ParseError("phase must be numeric", "phase")
    records = doc.get("factors")
    if type(records) is not list:
        raise ParseError("'factors' must be a list", "factors")
    phase = float(phase)
    # a payload record holds its factor's place (None) until its entries
    # are read with the others: slots holds (place, kind, level, dim) and
    # payloads the entries of each, in order
    factors = []
    slots = []
    payloads = []
    for i, rec in enumerate(records):
        if type(rec) is not dict:
            raise ParseError("factor record must be an object", f"factors[{i}]")
        name = rec.get("kind")
        kind = _KINDS.get(name) if type(name) is str else None
        if kind is None:
            if name != "global_phase":
                raise ParseError(f"missing or unknown factor kind {name!r}", f"factors[{i}]")
            phi = rec.get("phi")
            if not is_json_number(phi):
                raise ParseError("global_phase record needs numeric 'phi'", f"factors[{i}]")
            phase += float(phi)
            continue
        level = rec.get("level_qubits", 1)
        if type(level) is not int or level < 1:
            raise ParseError(f"bad level_qubits {level!r}", f"factors[{i}]")
        if kind is FactorKind.CARTAN_EXP:
            factors.append(_cartan_factor(rec, i, level, n_total))
            continue
        # checked before the entries are read: a level-l SubUnitary covers
        # l - 1 qubits, up to the whole register, and a LastQubit sits at l
        sub = kind is FactorKind.SUB_UNITARY
        if level > (n_total + 1 if sub else n_total):
            raise ParseError(
                f"{kind.value} level {level} does not fit n_total = {n_total}",
                f"factors[{i}]",
            )
        qubits = level - 1 if sub else 1
        entries = rec.get("entries", [])
        check_pairs(entries, qubits, lambda: f"factors[{i}].entries")
        slots.append((len(factors), kind, level, 1 << qubits))
        payloads.append(entries)
        factors.append(None)
    raw_report = doc.get("report")
    report = None if raw_report is None else _parse_report(raw_report)
    # a tree of Cartan factors alone has no entries to read
    if payloads:
        count = sum([dim * dim for _, _, _, dim in slots])
        flat = pairs_values(payloads, count).view(complex)
        start = 0
        for place, kind, level, dim in slots:
            matrix = flat[start:start + dim * dim].reshape(dim, dim)
            factors[place] = Factor(kind=kind, level_qubits=level, matrix=matrix)
            start += dim * dim
    return FactorTree(n_total=n_total, phase=phase, factors=tuple(factors), report=report)
