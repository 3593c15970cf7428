"""Writer contract tests: `fileio.dump_json` against the pair-list writer
it replaced, kept here as the oracle, on array payloads, Python pair
lists, scalar leaves and whole tree and benchmark documents; and the
templated tree writer `factors.serialize` against the dict-building
writer before it, kept here too, on edge cases and on its errors.

Both writers lay out with one walker that counts every float as 24
characters wide. The oracle measured each float as printed, so the two
part on a list of at most 8 [label, value] pairs whose labels encode to
18 or 19 characters: a value that prints in 22 or 23 kept it on one
line. widest_dump_json is the oracle under the one rule, and pins those
cases; the oracle stays the reference for every other."""

import dataclasses
import functools
import json
import math
from itertools import chain

import numpy as np
import pytest

from kgdecomp import decompose_full, haar_special_unitary, run_benchmark
from kgdecomp import factors as factors_module
from kgdecomp import fileio as fileio_module
from kgdecomp.factors import (
    DecompositionReport,
    Factor,
    FactorKind,
    FactorTree,
    deserialize,
    serialize,
)
from kgdecomp.fileio import dump_json, matrix_from_document, matrix_to_document
from kgdecomp.metrics import summary_to_dict
from structured_sweep import inputs as structured_inputs


def _oracle_fmt_float(x):
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(float(x), ".16e")


def _oracle_pair_rows(obj, inner):
    rows = []
    for row in obj:
        if type(row) is not list or len(row) != 2:
            return None
        re, im = row
        if type(re) is not float or type(im) is not float:
            return None
        if not (math.isfinite(re) and math.isfinite(im)):
            return None
        rows.append("%s[%.16e, %.16e]" % (inner, re, im))
    return rows


def oracle_dump_json(obj, indent=0):
    """The writer as it was when matrices were handed over as Python
    [re, im] pair lists; it knows no arrays."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _oracle_fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {oracle_dump_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = _oracle_pair_rows(obj, inner)
        if rows is not None:
            return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
        parts = [oracle_dump_json(v, indent + 1) for v in obj]
        if all(len(p) < 48 and "\n" not in p for p in parts) and len(parts) <= 8:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# prints in 24 characters, the most that "%.16e" takes
WIDEST = -1.2345678901234567e-300
WIDEST_TEXT = _oracle_fmt_float(WIDEST)


def widest_dump_json(obj, indent=0):
    """oracle_dump_json with every float counted 24 characters wide: the
    oracle lays obj out with each float at WIDEST, and each is then
    written at its own value."""
    floats = []

    def widen(value):
        if isinstance(value, (float, np.floating)):
            floats.append(value)
            return WIDEST
        if isinstance(value, dict):
            return {k: widen(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [widen(v) for v in value]
        return value

    pieces = oracle_dump_json(widen(obj), indent).split(WIDEST_TEXT)
    return "".join(chain(*zip(pieces, map(_oracle_fmt_float, floats)))) + pieces[-1]


def pair_list(matrix):
    """Row-major [re, im] pair list of Python floats, built entry by entry."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix).ravel()]


def as_lists(obj):
    """obj with every ndarray replaced by its pair list."""
    if isinstance(obj, np.ndarray):
        return pair_list(obj)
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_lists(v) for v in obj]
    return obj


SPECIALS = (-0.0, 5e-324, -5e-324, 1.5e308, -1.5e308, 1.0, -1.0, 0.0)

LAYOUTS = {
    "c-order": lambda m: m,
    "strided": lambda m: m[0::2, 0::2],
    "transpose": lambda m: m.T,
    "adjoint": lambda m: m.conj().T,
    "fortran": np.asfortranarray,
}


def random_matrices(seed, count=60):
    """Complex 2^k x 2^k matrices, k = 1..4, with special values mixed in."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = 2 ** int(rng.integers(1, 5))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m *= 10.0 ** rng.integers(-300, 300, size=(dim, dim))
        flat = m.view(float).reshape(-1)
        picks = rng.integers(0, flat.size, size=flat.size // 3 + 1)
        flat[picks] = rng.choice(SPECIALS, size=picks.size)
        yield m


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_array_payload_writes_the_oracle_bytes(layout):
    for m in random_matrices(seed=sorted(LAYOUTS).index(layout)):
        view = LAYOUTS[layout](m)
        expected = oracle_dump_json({"entries": pair_list(view)}, 1)
        assert dump_json({"entries": view}, 1) == expected
        assert dump_json(view, 2) == oracle_dump_json(pair_list(view), 2)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_python_pair_list_writes_the_oracle_bytes(layout):
    for m in random_matrices(seed=10 + sorted(LAYOUTS).index(layout), count=20):
        entries = pair_list(LAYOUTS[layout](m))
        assert dump_json({"entries": entries}) == oracle_dump_json({"entries": entries})


def test_matrix_document_writes_the_oracle_bytes():
    for m in random_matrices(seed=20, count=20):
        doc = oracle_dump_json({"n": int(np.log2(m.shape[0])), "entries": pair_list(m)})
        assert matrix_to_document(m) == doc + "\n"
        assert matrix_to_document(m.T) == matrix_to_document(np.ascontiguousarray(m.T))
    g = haar_special_unitary(3, np.random.default_rng(4))
    assert np.array_equal(matrix_from_document(matrix_to_document(g))[1], g)


@pytest.mark.parametrize("shape", [(), (0,), (0, 0), (1, 1), (1, 2), (3, 3), (6, 6), (4,),
                                   (2, 4), (2, 2, 2)], ids=str)
def test_matrix_document_needs_2n_by_2n_with_n_at_least_1(shape):
    # 1 x 1 would write "n": 0, which matrix_from_document refuses
    with pytest.raises(ValueError) as info:
        matrix_to_document(np.zeros(shape, dtype=complex))
    assert str(info.value) == f"matrix shape {shape} is not 2^n x 2^n with n >= 1"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_entries_are_refused(bad, part):
    rng = np.random.default_rng(3)
    for index in range(16):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        flat = m.view(float).reshape(-1, 2)
        flat[index, 0 if part == "real" else 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dump_json(m)
        with pytest.raises(ValueError, match="non-finite"):
            dump_json({"entries": m.T})
        with pytest.raises(ValueError, match="non-finite"):
            dump_json(pair_list(m))


@pytest.mark.parametrize("value", [
    np.float64(0.1), np.float64(-0.0), np.int64(-7), True, False, None,
    (1, 2.5, "a"), ((0.5, 0.25),), [], {}, [[]], {"a": {}}, 3, 2**70,
    "quote\" and \\ and é and \n", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
    {1: "int key", "x": [np.float64(1.0), np.int64(2), True, None]},
    {"nested": [{"a": [0.5, -0.5]}, [["ZZ", 1e-300]], ("t", 1)]},
])
def test_scalars_and_containers_write_the_oracle_bytes(value):
    for indent in (0, 2):
        assert dump_json(value, indent) == oracle_dump_json(value, indent)
        assert dump_json([value], indent) == oracle_dump_json([value], indent)
        assert dump_json({"k": value}, indent) == oracle_dump_json({"k": value}, indent)


@pytest.mark.parametrize("value", [
    np.bool_(True), np.zeros((2, 2)), np.zeros(4, dtype=complex),
    np.zeros((2, 2, 2), dtype=complex), {1, 2}, object(),
], ids=["bool_", "float-array", "complex-vector", "complex-3d", "set", "object"])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        dump_json(value)
    with pytest.raises(TypeError):
        dump_json({"entries": value})


def _oracle_serialize(tree, writer=oracle_dump_json):
    """The tree document as the dict-building writer made it, written by
    the oracle writer with the payloads as pair lists."""
    records = []
    for factor in tree.factors:
        rec = {"kind": factor.kind.value, "level_qubits": factor.level_qubits}
        if factor.kind is FactorKind.CARTAN_EXP:
            rec["basis"] = factor.basis_name
            rec["coeffs"] = [[label, float(c)] for label, c in factor.coeffs]
            if factor.subspace_residual is not None:
                rec["subspace_residual"] = float(factor.subspace_residual)
        else:
            rec["entries"] = np.asarray(factor.matrix, dtype=complex)
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
        "format": "kgdecomp-tree",
        "version": 1,
        "n_total": tree.n_total,
        "phase": float(tree.phase),
        "report": report,
        "factors": records,
    }
    return writer(as_lists(doc)) + "\n"


def _expected_serialize(tree):
    """The tree document under the writer's one rule: as the oracle writes
    it with every float counted 24 characters wide (widest_dump_json),
    and each report value a float."""
    report = tree.report
    if report is not None:
        report = dataclasses.replace(
            report,
            approx_error=float(report.approx_error),
            subspace_errors=tuple((label, float(v)) for label, v in report.subspace_errors),
            wall_time=float(report.wall_time),
        )
    return _oracle_serialize(dataclasses.replace(tree, report=report), widest_dump_json)


def _fixed_clock(tree):
    report = dataclasses.replace(tree.report, wall_time=0.125)
    return dataclasses.replace(tree, report=report)


def test_fresh_trees_write_the_oracle_bytes():
    cases = [
        (f"haar{n}-{seed}", haar_special_unitary(n, np.random.default_rng([seed, n])))
        for n in (2, 3, 4, 5)
        for seed in range(3 if n < 5 else 1)
    ]
    cases += list(structured_inputs())
    for name, g in cases:
        n = int(np.log2(g.shape[0]))
        tree = _fixed_clock(decompose_full(g, n))
        assert serialize(tree) == _oracle_serialize(tree), name


def test_benchmark_summary_writes_the_oracle_bytes():
    summary = run_benchmark(n=3, count=3, seed=5)
    doc = summary_to_dict(summary)
    assert dump_json(doc) == oracle_dump_json(doc)


@functools.lru_cache(maxsize=None)
def _haar_tree(seed=41):
    g = haar_special_unitary(3, np.random.default_rng([seed, 3]))
    return _fixed_clock(decompose_full(g, 3))


def _cartan(labels, values, basis="H3", residual=None):
    coeffs = tuple(zip(labels, values))
    return Factor(FactorKind.CARTAN_EXP, level_qubits=3, basis_name=basis,
                  coeffs=coeffs, subspace_residual=residual)


def _with_factors(*factors):
    tree = _haar_tree()
    return dataclasses.replace(tree, factors=tree.factors + factors)


LABEL_VALUES = (-1.2345678901234567e-300, 2.5e-7, -9.87e+150, 1e100, -0.0, 3.0)

# the cases where the writer's one rule parts from the oracle: at most 8
# [label, value] pairs whose labels encode to 18 or 19 characters, and
# report values given as ints
NEW_RULE = {
    *(f"{kind}-{width}x{count}"
      for kind, counts in (("labels", (1, 6, 8)), ("errors", (1, 8)))
      for width in (18, 19) for count in counts),
    "escapes-long", "errors-escapes-long", "int-approx", "int-wall", "int-error",
}


def _check_writer(name, tree):
    want = _expected_serialize(tree)
    assert serialize(tree) == want, name
    if name not in NEW_RULE:
        assert want == _oracle_serialize(tree), name


def _writer_cases():
    tree = _haar_tree()
    stats = dataclasses.replace(tree.report, optimizer_stats=(("h[H3]", 0), ("f0[F3]", 12)))
    yield "no-report", dataclasses.replace(tree, report=None)
    yield "optimizer-stats", dataclasses.replace(tree, report=stats)
    labels = dataclasses.replace(
        stats, subspace_errors=(("h%s[H3]", 1e-15), ('f"0\u00e9', -2e-300), ("%", 0.0)),
        optimizer_stats=(("f1%%[F3]", 3),))
    yield "report-escapes", dataclasses.replace(tree, report=labels)
    yield "no-factors", dataclasses.replace(tree, factors=())
    yield "no-factors-no-report", FactorTree(3, -0.25, ())
    yield "escapes-percent", _with_factors(
        _cartan(["Z%Z", 'a"b', "Z\u00e9Z", "%s", "%%", "%(x)s"], LABEL_VALUES, basis="H%3"))
    yield "escapes-quote", _with_factors(_cartan(["ZZ"], [0.5], basis='F"3', residual=1e-12))
    yield "escapes-unicode", _with_factors(
        _cartan(["\u00e9" * 2, "\u2603"], [1.0, -1.0], basis="H\u00e9", residual=0.0))
    yield "escapes-long", _with_factors(
        _cartan(["\u00e9" * 3, "%"], [1.0, -1.0], basis="%\u00e9", residual=0.0))
    yield "no-coeffs", _with_factors(_cartan([], [], residual=2.0), _cartan([], []))
    yield "odd-labels", _with_factors(_cartan([5, ("t",), None], [1.0, 2.0, 3.0]))
    for width in (16, 17, 18, 19, 20):
        for count in (1, 6, 8, 9):
            labels = ["X" * width] * count
            for values in ([-1.2345678901234567e-300] * count, [0.5] * count,
                           list(LABEL_VALUES * 2)[:count]):
                yield f"labels-{width}x{count}", _with_factors(
                    _cartan(labels, values), _cartan(labels, values, residual=-1e-300))


@pytest.mark.parametrize("name, tree", list(_writer_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_writer_edge_cases_write_the_oracle_bytes(name, tree):
    _check_writer(name, tree)


def test_band_pairs_go_one_per_line_and_int_values_as_floats():
    # ["K0/K0/K0/K0/f0[F3]", 0.5] prints in 46 characters, but counts as
    # 48 with its float 24 wide, so even two such pairs go one per line;
    # an int approx_error is written as a float and reads back equal
    label = "K0/K0/K0/K0/f0[F3]"
    tree = FactorTree(3, 0.0, (), DecompositionReport(
        approx_error=0, subspace_errors=((label, 0.5), (label, -0.0))))
    text = serialize(tree)
    assert text == (
        '{\n  "format": "kgdecomp-tree",\n  "version": 1,\n  "n_total": 3,\n'
        '  "phase": 0.0000000000000000e+00,\n  "report": {\n'
        '    "approx_error": 0.0000000000000000e+00,\n    "subspace_errors": [\n'
        '      ["K0/K0/K0/K0/f0[F3]", 5.0000000000000000e-01],\n'
        '      ["K0/K0/K0/K0/f0[F3]", -0.0000000000000000e+00]\n    ],\n'
        '    "wall_time": 0.0000000000000000e+00,\n    "optimizer_stats": []\n  },\n'
        '  "factors": []\n}\n'
    )
    assert deserialize(text) == tree
    assert dump_json([[label, 0.5]]) == '[\n  ["K0/K0/K0/K0/f0[F3]", 5.0000000000000000e-01]\n]'


@pytest.mark.parametrize("where", ["coefficient", "subspace_error", "optimizer_stat"])
def test_an_unhashable_label_is_a_type_error(where):
    tree = _haar_tree()
    report = tree.report
    if where == "coefficient":
        tree = _with_factors(_cartan([5, ("t",), ["u"]], [1.0, 2.0, 3.0]))
    elif where == "subspace_error":
        tree = dataclasses.replace(tree, report=dataclasses.replace(
            report, subspace_errors=((["u"], 1.0),)))
    else:
        tree = dataclasses.replace(tree, report=dataclasses.replace(
            report, optimizer_stats=((["u"], 1),)))
    with pytest.raises(TypeError):
        serialize(tree)


@pytest.mark.parametrize("where", ["n_total", "payload", "cartan"])
def test_a_float_level_or_n_total_is_a_type_error(where):
    # deserialize refuses a float there, so no document is written
    tree = _haar_tree()
    if where == "n_total":
        tree = dataclasses.replace(tree, n_total=3.0)
    else:
        kind = FactorKind.CARTAN_EXP if where == "cartan" else FactorKind.SUB_UNITARY
        factor = next(f for f in tree.factors if f.kind is kind)
        tree = dataclasses.replace(tree, factors=(dataclasses.replace(factor, level_qubits=3.0),))
    with pytest.raises(TypeError):
        serialize(tree)


def test_serialize_never_calls_dump_json(monkeypatch):
    # the tree writer fills its cached templates itself, for every report
    # too: one with deep 18-character labels or with optimizer_stats
    calls = []
    for module in (factors_module, fileio_module):
        writer = module.dump_json
        monkeypatch.setattr(module, "dump_json", lambda obj, indent=0, writer=writer:
                            calls.append(obj) or writer(obj, indent))
    tree = _haar_tree()
    report = tree.report
    errors = (("K0/K0/K0/K0/f0[F3]", 1e-15),) + report.subspace_errors
    for other in (report, None, dataclasses.replace(report, subspace_errors=errors),
                  dataclasses.replace(report, optimizer_stats=(("h[H3]", 3),))):
        serialize(dataclasses.replace(tree, report=other))
    assert calls == []


def _report_cases():
    report = _haar_tree().report
    yield "empty", dataclasses.replace(report, subspace_errors=())
    for width in (16, 17, 18, 19, 20):
        for count in (1, 8, 9, 15):
            for value in (-1.2345678901234567e-300, 0.5, -0.0):
                errors = tuple(("E" * width, value) for _ in range(count))
                yield f"errors-{width}x{count}", dataclasses.replace(
                    report, subspace_errors=errors)
    for width in (20, 40, 41, 42, 60):
        for count in (0, 7, 1234567):
            stats = tuple(("S" * width, count) for _ in range(3))
            yield f"stats-{width}-{count}", dataclasses.replace(report, optimizer_stats=stats)
    yield "stats-nine", dataclasses.replace(
        report, optimizer_stats=tuple((f"s{i}", i) for i in range(9)))
    yield "stats-bool", dataclasses.replace(report, optimizer_stats=(("h[H3]", True),))
    yield "stats-odd-label", dataclasses.replace(report, optimizer_stats=((7, 1),))
    yield "errors-odd-label", dataclasses.replace(
        report, subspace_errors=((("t",), 1.0), (None, 2.0)))
    yield "errors-escapes", dataclasses.replace(
        report, subspace_errors=(("%(x)s", 1.0), ('"\n%', 2.0), ("\u00e9" * 2, 3.0)))
    yield "errors-escapes-long", dataclasses.replace(
        report, subspace_errors=(("%(x)s", 1.0), ("\u00e9" * 3, 3.0)))
    yield "int-approx", dataclasses.replace(report, approx_error=0)
    yield "int-wall", dataclasses.replace(report, wall_time=3)
    yield "int-error", dataclasses.replace(report, subspace_errors=(("h[H3]", 1),))
    yield "numpy-float64", dataclasses.replace(
        report, approx_error=np.float64(2.5e-15), subspace_errors=(("h[H3]", np.float64(-0.0)),))
    yield "numpy-floats", dataclasses.replace(
        report, approx_error=np.float64(2.5e-15), wall_time=np.float32(0.25),
        subspace_errors=(("h[H3]", np.float64(1e-300)), ("f0[F3]", np.float32(3.5))))


@pytest.mark.parametrize("name, report", list(_report_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_report_templates_write_the_dump_json_bytes(name, report):
    # the report block is laid out by the same walker as dump_json: a
    # list of at most 8 entries on one line where each is under 48
    # characters; every report reads back equal
    tree = dataclasses.replace(_haar_tree(), report=report)
    _check_writer(name, tree)
    if "odd-label" not in name:  # deserialize refuses a label that is not a string
        assert deserialize(serialize(tree)).report == report, name


@pytest.mark.parametrize("label", ["h[H3]", "K0/K0/K0/K0/f0[F3]", 5])
def test_a_non_finite_phase_is_named_before_the_report(label):
    # with or without a report template, the phase precedes the report
    tree = _haar_tree()
    report = dataclasses.replace(tree.report, subspace_errors=((label, np.nan),))
    tree = dataclasses.replace(tree, phase=np.inf, report=report)
    assert _oracle_error(tree) == "cannot serialize non-finite float inf"
    with pytest.raises(ValueError, match="non-finite float inf$"):
        serialize(tree)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_fresh_tree_reports_write_the_dump_json_bytes(n):
    tree = decompose_full(haar_special_unitary(n, np.random.default_rng([5, n])), n)
    assert serialize(tree) == _oracle_serialize(tree)
    # the templates are cached per shape: a second tree reuses them
    assert serialize(tree) == _oracle_serialize(tree)


def test_an_su128_tree_writes_the_oracle_bytes(su128_tree):
    # its report labels ("K0/K0/K0/K0/f0[F3]") are 18 characters, but it
    # has far more than 8 of them, so both rules put them one per line
    assert serialize(su128_tree) == _oracle_serialize(su128_tree)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_payloads_that_are_not_2d_are_refused(shape):
    tree = _haar_tree()
    bad = Factor(FactorKind.LAST_QUBIT, level_qubits=3, matrix=np.zeros(shape, dtype=complex))
    for factors in ((bad,), tree.factors[:2] + (bad,) + tree.factors[2:]):
        with pytest.raises(TypeError):
            serialize(dataclasses.replace(tree, factors=factors))


def _spoil(tree, where, value):
    """tree with value put at one float of the document."""
    report = tree.report
    factors = list(tree.factors)
    if where == "phase":
        return dataclasses.replace(tree, phase=value)
    if where in ("approx_error", "wall_time"):
        return dataclasses.replace(tree, report=dataclasses.replace(report, **{where: value}))
    if where == "subspace_error":
        errors = report.subspace_errors
        errors = errors[:1] + ((errors[1][0], value),) + errors[2:]
        report = dataclasses.replace(report, subspace_errors=errors)
        return dataclasses.replace(tree, report=report)
    index = next(i for i, f in enumerate(factors)
                 if (f.kind is FactorKind.CARTAN_EXP) == (where != "payload"))
    factor = factors[index]
    if where == "payload":
        matrix = factor.matrix.copy()
        matrix[1, 2] = complex(0.5, value)
        factors[index] = dataclasses.replace(factor, matrix=matrix)
    elif where == "coefficient":
        coeffs = factor.coeffs[:1] + ((factor.coeffs[1][0], value),) + factor.coeffs[2:]
        factors[index] = dataclasses.replace(factor, coeffs=coeffs)
    else:
        factors[index] = dataclasses.replace(factor, subspace_residual=value)
    return dataclasses.replace(tree, factors=tuple(factors))


# in document order: the first payload record precedes the first Cartan one
SPOTS = ("phase", "approx_error", "subspace_error", "wall_time", "payload",
         "coefficient", "residual")


def _oracle_error(tree):
    with pytest.raises(ValueError) as exc:
        _oracle_serialize(tree)
    return str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", SPOTS)
def test_a_non_finite_value_is_named(where, bad):
    tree = _spoil(_haar_tree(), where, bad)
    want = _oracle_error(tree)
    assert want == f"cannot serialize non-finite float {bad!r}"
    with pytest.raises(ValueError) as exc:
        serialize(tree)
    assert str(exc.value) == want


@pytest.mark.parametrize("first, second", [
    (first, second) for i, first in enumerate(SPOTS) for second in SPOTS[i + 1:]
])
def test_the_first_non_finite_value_in_document_order_is_named(first, second):
    tree = _spoil(_spoil(_haar_tree(), second, -np.inf), first, np.nan)
    assert _oracle_error(tree) == "cannot serialize non-finite float nan"
    with pytest.raises(ValueError, match="non-finite float nan$"):
        serialize(tree)
