"""Factor model tests: expansion oracles, products, serialization."""

import numpy as np
import pytest

from kgdecomp import (
    Factor,
    FactorKind,
    FactorTree,
    DecompositionReport,
    LevelExceedsRegisterError,
    ParseError,
    deserialize,
    expand,
    expm_skew,
    factor_defects,
    haar_special_unitary,
    pauli_word,
    product,
    serialize,
)
import kgdecomp.factors
from kgdecomp.basis import is_cartan_label
from kgdecomp.fileio import complex_entries, dump_json


def su(n_qubits, seed):
    return haar_special_unitary(n_qubits, np.random.default_rng(seed))


def test_expand_sub_unitary_pads_right():
    u = su(2, 0)
    f = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=u)
    assert np.allclose(expand(f, 3), np.kron(u, np.eye(2)), atol=0)
    # at level n_total + 1 the payload covers the whole register
    f_leaf = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=u)
    assert np.allclose(expand(f_leaf, 2), u, atol=0)


def test_expand_last_qubit_embeds_in_middle():
    u = su(1, 1)
    f = Factor(kind=FactorKind.LAST_QUBIT, level_qubits=2, matrix=u)
    want = np.kron(np.kron(np.eye(2), u), np.eye(2))
    assert np.allclose(expand(f, 3), want, atol=0)


def test_expand_last_qubit_at_register_end():
    u = su(1, 2)
    f = Factor(kind=FactorKind.LAST_QUBIT, level_qubits=3, matrix=u)
    assert np.allclose(expand(f, 3), np.kron(np.eye(4), u), atol=0)


def test_expand_cartan_exp_oracle():
    # exp of 0.3 XXZ + 0.1 ZZZ on the first 3 qubits of a 4-qubit register
    coeffs = (("XXZ", 0.3), ("ZZZ", 0.1))
    f = Factor(kind=FactorKind.CARTAN_EXP, level_qubits=3, basis_name="F3",
               coeffs=coeffs)
    gen = 0.3 * pauli_word("XXZ").matrix + 0.1 * pauli_word("ZZZ").matrix
    want = np.kron(expm_skew(gen), np.eye(2))
    assert np.allclose(expand(f, 4), want, atol=1e-14)


def test_expand_rejects_oversized_level():
    u = su(2, 3)
    f = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=6, matrix=u)
    with pytest.raises(LevelExceedsRegisterError):
        expand(f, 3)


def test_product_phase_cancellation():
    # a version-1 document may carry the phase as a global_phase record;
    # reading folds it into tree.phase, and pi + pi cancels in the product
    u = su(2, 11)
    doc = {
        "format": "kgdecomp-tree",
        "version": 1,
        "n_total": 2,
        "phase": np.pi,
        "report": None,
        "factors": [
            {"kind": "global_phase", "level_qubits": 1, "phi": np.pi},
            {"kind": "sub_unitary", "level_qubits": 3,
             "entries": complex_entries(u)},
        ],
    }
    tree = deserialize(dump_json(doc))
    assert tree.phase == 2 * np.pi
    assert [f.kind for f in tree.factors] == [FactorKind.SUB_UNITARY]
    assert np.allclose(product(tree), u, atol=1e-14)


def _words(n):
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "IXYZ"]
    return words


def test_cartan_words_lookup():
    # the label check deserialize applies to a Cartan record
    assert [w for w in _words(3) if is_cartan_label(w, "H", 3)] == [
        "IIX", "XXX", "YYX", "ZZX"
    ]
    assert [w for w in _words(4) if is_cartan_label(w, "F", 4)] == [
        "IIXZ", "XXIZ", "XXXZ", "YYIZ", "YYXZ", "ZZIZ", "ZZXZ"
    ]
    assert not is_cartan_label("IIX", "H", 4)
    assert not is_cartan_label("IIX", "Q", 3)


def test_serialize_round_trip_preserves_product_and_coords():
    factors = [
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=su(2, 4)),
        Factor(kind=FactorKind.CARTAN_EXP, level_qubits=3, basis_name="H3",
               coeffs=(("IIX", 0.125), ("XXX", -1.75e-3), ("YYX", 0.0),
                       ("ZZX", 1.0 / 3.0)),
               subspace_residual=2.5e-14),
        Factor(kind=FactorKind.LAST_QUBIT, level_qubits=3, matrix=su(1, 5)),
    ]
    report = DecompositionReport(
        approx_error=1.25e-13,
        subspace_errors=(("h[H3]", 3e-15),),
        wall_time=0.5,
        optimizer_stats=(("n3:h", 17),),
    )
    tree = FactorTree(3, 0.75, tuple(factors), report)
    again = deserialize(serialize(tree))
    assert again.n_total == tree.n_total
    assert again.phase == tree.phase
    assert len(again.factors) == len(tree.factors)
    # 17-significant-digit floats round-trip doubles exactly
    assert again.factors[1].coeffs == tree.factors[1].coeffs
    assert again.report.approx_error == report.approx_error
    assert again.report.subspace_errors == report.subspace_errors
    assert np.linalg.norm(product(again) - product(tree)) < 1e-14


def test_deserialize_rejects_malformed_documents(monkeypatch):
    good = serialize(FactorTree(2, 0.0, (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=su(2, 6)),
    )))

    with pytest.raises(ParseError):
        deserialize(good[:-20])
    with pytest.raises(ParseError):
        deserialize(good.replace("kgdecomp-tree", "other-format"))
    with pytest.raises(ParseError):
        deserialize(good.replace('"version": 1', '"version": 99'))
    with pytest.raises(ParseError):
        deserialize(good.replace("sub_unitary", "mystery_kind"))
    err = None
    try:
        deserialize(good.replace("sub_unitary", "mystery_kind"))
    except ParseError as exc:
        err = exc
    assert err is not None and err.location

    cartan = serialize(FactorTree(3, 0.0, (
        Factor(kind=FactorKind.CARTAN_EXP, level_qubits=3, basis_name="H3",
               coeffs=(("IIX", 0.1), ("XXX", 0.2))),
    ), DecompositionReport(approx_error=1e-12, optimizer_stats=(("n3:h", 7),))))
    deserialize(cartan)
    zero = '"phase": 0.0000000000000000e+00'
    assert zero in cartan
    for bad, location in [
        # a basis from another level
        (cartan.replace('"H3"', '"H4"'), "factors[0]"),
        # a label outside the H3 basis
        (cartan.replace('"XXX"', '"XXZ"'), "factors[0].coeffs[1]"),
        # a level beyond the register
        (cartan.replace('"level_qubits": 3', '"level_qubits": 4')
               .replace('"H3"', '"H4"'), "factors[0]"),
        # JSON booleans are not numbers, though bool subclasses int
        (cartan.replace(zero, '"phase": true'), "phase"),
        (cartan.replace('"n_total": 3', '"n_total": true'), "n_total"),
        (good.replace('"level_qubits": 3', '"level_qubits": true'), "factors[0]"),
        (cartan.replace('["IIX", 1.0000000000000001e-01]', '["IIX", true]'),
         "factors[0].coeffs[0]"),
        (cartan.replace('["n3:h", 7]', '["n3:h", true]'),
         "report.optimizer_stats[0]"),
        # json.loads reads NaN and Infinity, but they are not numbers here,
        # and neither is an integer beyond the float range
        (cartan.replace('["IIX", 1.0000000000000001e-01]', '["IIX", NaN]'),
         "factors[0].coeffs[0]"),
        (cartan.replace(zero, '"phase": Infinity'), "phase"),
        (cartan.replace('["XXX", 2.0000000000000001e-01]', '["XXX", 1' + "0" * 400 + "]"),
         "factors[0].coeffs[1]"),
        # payload levels beyond the register are refused before the
        # entries are read, so a huge level never formats 4^level
        (good.replace('"level_qubits": 3', '"level_qubits": 4'), "factors[0]"),
        (good.replace('"level_qubits": 3', '"level_qubits": 9000'), "factors[0]"),
        (good.replace("sub_unitary", "last_qubit"), "factors[0]"),
    ]:
        assert bad != cartan
        with pytest.raises(ParseError) as info:
            deserialize(bad)
        assert info.value.location == location

    # A document declares its own register, so a small file may name a
    # level whose basis holds 4^40 - 1 words; its labels are checked on
    # their own, and building any basis here is a failure, not a hang.
    def refuse(n):
        raise AssertionError(f"built the level-{n} basis")

    monkeypatch.setattr(kgdecomp.factors, "build_kg_basis", refuse)
    n = 40
    top = "I" * (n - 1) + "X"
    nested = "XX" + "I" * (n - 3) + "X"
    doc = {
        "format": "kgdecomp-tree", "version": 1, "n_total": n, "phase": 0.0,
        "report": None,
        "factors": [{"kind": "cartan_exp", "level_qubits": n, "basis": f"H{n}",
                     "coeffs": [[top, 0.1], [nested, 0.2]]}],
    }
    tree = deserialize(dump_json(doc))
    assert tree.factors[0].coeffs == ((top, 0.1), (nested, 0.2))
    doc["factors"][0]["coeffs"][1][0] = "XY" + "I" * (n - 3) + "X"
    with pytest.raises(ParseError) as info:
        deserialize(dump_json(doc))
    assert info.value.location == "factors[0].coeffs[1]"


def test_deserialize_rejects_wrong_entry_count():
    tree = FactorTree(2, 0.0, (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=su(2, 7)),
    ))
    doc = serialize(tree)
    # drop one entry pair from the matrix payload
    head, sep, tail = doc.partition('"entries": [')
    depth = 1
    idx = 0
    while depth:
        if tail[idx] == "[":
            depth += 1
        elif tail[idx] == "]":
            depth -= 1
        idx += 1
    inner = tail[: idx - 1]
    trimmed = inner[: inner.rfind("[") - 2]
    with pytest.raises(ParseError):
        deserialize(head + sep + trimmed + tail[idx - 1:])


def test_factor_defects_clean_and_dirty():
    clean = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=su(2, 8))
    d = factor_defects(clean)
    assert d["unitarity"] < 1e-13 and d["det"] < 1e-13

    dirty = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3,
                   matrix=1.5 * su(2, 9))
    assert factor_defects(dirty)["unitarity"] > 1.0

    # Cartan exponentials are special unitary by construction; their
    # labels are checked when a document is read
    cartan = Factor(kind=FactorKind.CARTAN_EXP, level_qubits=3,
                    basis_name="H3", coeffs=(("XXX", 1.0),),
                    subspace_residual=1e-3)
    assert factor_defects(cartan) == {}


def test_tree_is_frozen():
    tree = FactorTree(2, 0.0, (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=su(2, 10)),
    ))
    with pytest.raises(Exception):
        tree.phase = 1.0
