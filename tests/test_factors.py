"""Factor model tests: expansion oracles, products, serialization."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from kgdecomp import (
    BadLabelError,
    Factor,
    FactorKind,
    FactorTree,
    DecompositionReport,
    DimensionMismatchError,
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
from kgdecomp.basis import build_kg_basis, cartan_torus, is_cartan_label
from kgdecomp.fileio import (
    dump_json,
    entries_to_matrix,
    matrix_from_document,
    matrix_to_document,
    pairs_values,
    parse_json,
)


def su(n_qubits, seed):
    return haar_special_unitary(n_qubits, np.random.default_rng(seed))


def complex_entries(matrix):
    """Row-major [re, im] pair list of Python floats for a complex matrix."""
    return np.ascontiguousarray(matrix, dtype=complex).view(float).reshape(-1, 2).tolist()


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


@pytest.mark.parametrize("basis", ["H2", "H3", "H4", "H5", "H6", "F3", "F4", "F5", "F6"])
def test_cartan_block_matches_exponential_of_words(basis):
    # the torus block Q diag(e^{i phi}) Q^dag against expm_skew of the
    # summed words, with the labels shuffled and some repeated
    level = int(basis[1:])
    kg = build_kg_basis(level)
    words = kg.h_set if basis[0] == "H" else kg.f_set
    rng = np.random.default_rng(level + 10 * (basis[0] == "F"))
    labels = [w.label for w in words]
    labels = [labels[i] for i in rng.permutation(len(labels))]
    labels += [labels[i] for i in rng.integers(len(labels), size=3)]
    coeffs = tuple((label, float(rng.uniform(-2.0, 2.0))) for label in labels)
    gen = sum(c * pauli_word(label).matrix for label, c in coeffs)
    f = Factor(kind=FactorKind.CARTAN_EXP, level_qubits=level, basis_name=basis,
               coeffs=coeffs)
    assert np.max(np.abs(expand(f, level) - expm_skew(gen))) <= 1e-13


def _cartan_block_by_bincount(factor):
    # the block with the label rows summed by np.bincount on every call
    torus = cartan_torus(factor.basis_name[0], factor.level_qubits)
    coeffs = np.bincount(
        torus.rows_of([label for label, _ in factor.coeffs]),
        weights=[float(c) for _, c in factor.coeffs],
        minlength=len(torus.labels),
    )
    phi = 0.5 * (coeffs @ torus.signs)
    return (torus.q * np.exp(1j * phi)) @ torus.q.conj().T


@pytest.mark.parametrize("basis", ["H2", "H3", "H4", "F3", "F4", "F5"])
def test_cartan_block_matches_the_bincount_form(basis):
    # shuffled, repeated and empty label lists, each built twice so the
    # second read comes from the cached signs rows
    level = int(basis[1:])
    labels = list(cartan_torus(basis[0], level).labels)
    rng = np.random.default_rng(30 + level + 10 * (basis[0] == "F"))
    shuffled = [labels[i] for i in rng.permutation(len(labels))]
    repeated = shuffled + [labels[i] for i in rng.integers(len(labels), size=4)]
    for chosen in (shuffled, repeated, [labels[0]] * 3, []):
        coeffs = tuple((label, float(rng.uniform(-2.0, 2.0))) for label in chosen)
        f = Factor(kind=FactorKind.CARTAN_EXP, level_qubits=level, basis_name=basis,
                   coeffs=coeffs)
        for _ in range(2):
            got = kgdecomp.factors._cartan_block(f)
            assert np.max(np.abs(got - _cartan_block_by_bincount(f))) <= 1e-14


@pytest.mark.parametrize("basis, label", [("H3", "XXZ"), ("F3", "IIZ"), ("H2", "XY")])
def test_cartan_block_refuses_a_label_outside_its_basis(basis, label):
    good = cartan_torus(basis[0], int(basis[1:])).labels[0]
    for coeffs in (((label, 0.3),), ((good, 0.1), (label, 0.3))):
        f = Factor(kind=FactorKind.CARTAN_EXP, level_qubits=int(basis[1:]),
                   basis_name=basis, coeffs=coeffs)
        # twice: a refused label list is not cached
        for _ in range(2):
            with pytest.raises(BadLabelError, match=repr(label)):
                product(FactorTree(3, 0.0, (f,)))


def test_expand_rejects_oversized_level():
    u = su(2, 3)
    f = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=6, matrix=u)
    with pytest.raises(LevelExceedsRegisterError):
        expand(f, 3)


def _padded_oracle(factor, n_total):
    # the dense expansion product() once multiplied, padded with np.kron
    level = factor.level_qubits
    if factor.kind is FactorKind.SUB_UNITARY:
        return np.kron(factor.matrix, np.eye(2 ** (n_total - level + 1)))
    if factor.kind is FactorKind.LAST_QUBIT:
        body = np.kron(np.eye(2 ** (level - 1)), factor.matrix)
        return np.kron(body, np.eye(2 ** (n_total - level)))
    gen = np.zeros((2**level, 2**level), dtype=complex)
    for label, c in factor.coeffs:  # F2 has no words: its generator is 0
        gen = gen + c * pauli_word(label).matrix
    return np.kron(expm_skew(gen), np.eye(2 ** (n_total - level)))


def _random_unitary(size, rng):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_factor(kind, level, rng):
    if kind is FactorKind.CARTAN_EXP:
        basis = str(rng.choice(["H", "F"]))
        labels = [w for w in _words(level) if is_cartan_label(w, basis, level)]
        coeffs = tuple((label, float(rng.normal())) for label in labels)
        return Factor(kind=kind, level_qubits=level, basis_name=f"{basis}{level}",
                      coeffs=coeffs)
    size = 2 ** (level - 1) if kind is FactorKind.SUB_UNITARY else 2
    return Factor(kind=kind, level_qubits=level, matrix=_random_unitary(size, rng))


@pytest.mark.parametrize("n_total", [2, 3, 4, 5])
def test_product_matches_padded_kron_oracle(n_total):
    rng = np.random.default_rng(100 + n_total)
    legal = (
        [(FactorKind.SUB_UNITARY, l) for l in range(1, n_total + 2)]
        + [(FactorKind.LAST_QUBIT, l) for l in range(1, n_total + 1)]
        + [(FactorKind.CARTAN_EXP, l) for l in range(2, n_total + 1)]
    )
    # every legal (kind, level) once, then a seeded shuffle of extras
    picks = legal + [legal[i] for i in rng.integers(len(legal), size=12)]
    rng.shuffle(picks)
    tree = FactorTree(n_total, float(rng.uniform(-np.pi, np.pi)),
                      tuple(_random_factor(k, l, rng) for k, l in picks))
    want = np.exp(1j * tree.phase) * np.eye(2**n_total, dtype=complex)
    for factor in tree.factors:
        want = want @ _padded_oracle(factor, n_total)
    assert np.linalg.norm(product(tree) - want) < 1e-13
    for factor in tree.factors:
        assert np.linalg.norm(expand(factor, n_total)
                              - _padded_oracle(factor, n_total)) < 1e-13


def _unfolded_product(tree):
    # product() before it folded runs of small factors: each block
    # applied to the whole running product in turn
    dim = 2**tree.n_total
    out = np.exp(1j * tree.phase) * np.eye(dim, dtype=complex)
    for factor in tree.factors:
        block, first = kgdecomp.factors._block(factor, tree.n_total)
        grouped = out.reshape(dim, 2**first, len(block), -1)
        out = np.matmul(block.T, grouped).reshape(dim, dim)
    return out


def _legal_picks(n_total):
    return (
        [(FactorKind.SUB_UNITARY, l) for l in range(1, n_total + 2)]
        + [(FactorKind.LAST_QUBIT, l) for l in range(1, n_total + 1)]
        + [(FactorKind.CARTAN_EXP, l) for l in range(2, n_total + 1)]
    )


@pytest.mark.parametrize("n_total", [2, 3, 4, 5, 6])
def test_folded_product_matches_the_unfolded_loop(n_total):
    # seeded trees of every kind and level, most of them with long runs
    # of factors below the register; at n <= 3 nothing is folded and the
    # bits are the loop's own
    rng = np.random.default_rng(200 + n_total)
    legal = _legal_picks(n_total)
    small = [(kind, level) for kind, level in legal
             if level - (kind is FactorKind.SUB_UNITARY) < n_total]
    for extra in (legal, small, small):
        picks = legal + [extra[i] for i in rng.integers(len(extra), size=30)]
        rng.shuffle(picks)
        tree = FactorTree(n_total, float(rng.uniform(-np.pi, np.pi)),
                          tuple(_random_factor(k, l, rng) for k, l in picks))
        got, want = product(tree), _unfolded_product(tree)
        if n_total <= 3:
            assert np.array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) < 1e-13
    for seed in range(2):
        g = su(n_total, 300 + seed)
        tree = kgdecomp.decompose_full(g, n_total)
        assert np.linalg.norm(product(tree) - _unfolded_product(tree)) < 1e-13


@pytest.mark.parametrize("where", [0, 1, 3])
@pytest.mark.parametrize("bad", [
    Factor(FactorKind.SUB_UNITARY, level_qubits=3, matrix=np.eye(2, dtype=complex)),
    Factor(FactorKind.LAST_QUBIT, level_qubits=6),
    Factor(FactorKind.CARTAN_EXP, level_qubits=3, basis_name="F3", coeffs=(("XXX", 0.1),)),
])
def test_a_bad_factor_in_a_folded_run_raises_as_unfolded(where, bad):
    # a run of three small factors on five qubits, with the bad one at
    # its start, middle or after it: every factor passes _block first
    rng = np.random.default_rng(9)
    good = [_random_factor(FactorKind.SUB_UNITARY, 3, rng),
            _random_factor(FactorKind.LAST_QUBIT, 2, rng),
            _random_factor(FactorKind.CARTAN_EXP, 4, rng),
            _random_factor(FactorKind.CARTAN_EXP, 5, rng)]
    tree = FactorTree(5, 0.0, tuple(good[:where] + [bad] + good[where:]))
    with pytest.raises(Exception) as want:
        _unfolded_product(tree)
    with pytest.raises(type(want.value)) as got:
        product(tree)
    assert str(got.value) == str(want.value)
    assert type(want.value) in (
        DimensionMismatchError, LevelExceedsRegisterError, BadLabelError
    )


@pytest.mark.parametrize("kind, level", [
    (FactorKind.SUB_UNITARY, 5),
    (FactorKind.LAST_QUBIT, 4),
    (FactorKind.CARTAN_EXP, 4),
])
def test_product_rejects_oversized_level(kind, level):
    rng = np.random.default_rng(7)
    tree = FactorTree(3, 0.0, (_random_factor(kind, level, rng),))
    with pytest.raises(LevelExceedsRegisterError):
        product(tree)


@pytest.mark.parametrize("kind, level, size", [
    (FactorKind.SUB_UNITARY, 2, 4),   # a level-3 block under a level-2 label
    (FactorKind.SUB_UNITARY, 3, 2),
    (FactorKind.LAST_QUBIT, 2, 4),
])
def test_mis_sized_payload_raises_dimension_mismatch(kind, level, size):
    f = Factor(kind=kind, level_qubits=level, matrix=np.eye(size, dtype=complex))
    with pytest.raises(DimensionMismatchError, match="payload"):
        product(FactorTree(3, 0.0, (f,)))
    with pytest.raises(DimensionMismatchError, match="payload"):
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


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "verify"


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_writer_reproduces_committed_documents_byte_for_byte(path):
    doc = path.read_text(encoding="utf-8")
    if path.name.endswith(".tree.json"):
        assert serialize(deserialize(doc)) == doc
    else:
        assert matrix_to_document(matrix_from_document(doc)[1]) == doc


def _entries_oracle(entries, n):
    # the per-entry reading of a valid pair list
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return flat.reshape(2**n, 2**n)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_reader_matches_per_entry_reading_on_committed_documents(path):
    doc = parse_json(path.read_text(encoding="utf-8"))
    payloads = [doc] if "entries" in doc else [
        rec for rec in doc["factors"] if "entries" in rec]
    assert payloads
    for rec in payloads:
        n = len(rec["entries"]).bit_length() // 2
        got = entries_to_matrix(rec["entries"], n, "entries")
        assert got.tobytes() == _entries_oracle(rec["entries"], n).tobytes()


@pytest.mark.parametrize("bad", [
    [True, 0.5], ["0.5", 0.5], [0.5, float("nan")], [float("inf"), 0.5],
    [10**400, 0.5], [0.5, 0.5, 0.5], (0.5, 0.5),
], ids=["bool", "string", "nan", "inf", "huge-int", "three-list", "non-list"])
def test_reader_names_the_bad_entry(bad):
    entries = complex_entries(su(2, 12))
    entries[7] = bad
    with pytest.raises(ParseError) as info:
        entries_to_matrix(entries, 2, "entries")
    assert info.value.message == "entry is not an [re, im] pair"
    assert info.value.location == "entries[7]"


def test_reader_takes_ints_and_values_near_the_float_limit():
    entries = [[1, -2], [1.5e308, 1.5e308], [2**70, 0], [0.0, -0.0]]
    got = entries_to_matrix(entries, 1, "entries")
    assert got.tobytes() == _entries_oracle(entries, 1).tobytes()


@pytest.mark.parametrize("entry", [
    complex(np.nan, 0.5), complex(0.5, np.nan), complex(np.inf, 0.5), complex(0.5, -np.inf),
])
def test_serialize_refuses_a_non_finite_entry(entry):
    u = su(2, 11)
    u[1, 2] = entry
    tree = FactorTree(2, 0.0, (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=u),
    ))
    with pytest.raises(ValueError, match="non-finite"):
        serialize(tree)


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
        # true and 1.0 compare equal to 1 but are not the version 1
        (cartan.replace('"version": 1', '"version": true'), "version"),
        (cartan.replace('"version": 1', '"version": 1.0'), "version"),
        # a register whose 2^n x 2^n complex matrix would pass sys.maxsize
        # bytes; 10^400 is an int no float holds
        (cartan.replace('"n_total": 3', '"n_total": 30'), "n_total"),
        (cartan.replace('"n_total": 3', '"n_total": 1' + "0" * 400), "n_total"),
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
    # level whose basis holds 4^29 - 1 words, at the largest n_total that
    # reads; its labels are checked on their own, and building any basis
    # here is a failure, not a hang.
    def refuse(n):
        raise AssertionError(f"built the level-{n} basis")

    monkeypatch.setattr(kgdecomp.factors, "build_kg_basis", refuse)
    n = 29
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

    # faults in the later records of real trees, one or two to a
    # document: the first in document order is named, as when each
    # record's entries were read on their own, so a bad entry comes
    # before any fault in a later record or in the report
    for case, bad, message, location in _fixture_faults():
        with pytest.raises(ParseError) as info:
            deserialize(bad)
        assert (info.value.message, info.value.location) == (message, location), case


def test_the_reader_names_each_fault_in_the_one_pass_that_finds_it(monkeypatch):
    # the entries of a document are read once, after every record has
    # passed its checks: no fault case reads any, and each committed tree
    # reads all of its payloads with one call
    def no_reading(lists, count):
        raise AssertionError("entries read before every record was checked")

    monkeypatch.setattr(kgdecomp.factors, "pairs_values", no_reading)
    test_deserialize_rejects_malformed_documents(monkeypatch)

    calls = []
    monkeypatch.setattr(kgdecomp.factors, "pairs_values",
                        lambda lists, count: calls.append(count) or pairs_values(lists, count))
    for path in sorted(FIXTURES.glob("*.tree.json")):
        calls.clear()
        deserialize(path.read_text(encoding="utf-8"))
        assert len(calls) == 1, path.name


def _fixture_faults():
    """(case, document, message, location) for spoiled copies of the n=3
    tree n3_00 (9 records) and the n=4 tree n4_00 (41 records)."""
    not_pair = "entry is not an [re, im] pair"
    for stem in ("n3_00", "n4_00"):
        doc = json.loads((FIXTURES / f"{stem}.tree.json").read_text(encoding="utf-8"))
        records = doc["factors"]
        last = len(records) - 1
        payloads = [i for i, rec in enumerate(records) if "entries" in rec]
        early, k = payloads[1], payloads[-1]
        cartan = max(i for i, rec in enumerate(records) if rec["kind"] == "cartan_exp")
        count = len(records[k]["entries"])
        qubits = count.bit_length() // 2

        def spoiled(*edits):
            bad = copy.deepcopy(doc)
            for path, value in edits:
                place = bad
                for key in path[:-1]:
                    place = place[key]
                place[path[-1]] = value
            return json.dumps(bad)

        for name, pair in [
            ("bool", [True, 0.5]), ("string", ["0.5", 0.5]), ("short", [0.5]),
            ("nan", [0.5, float("nan")]), ("inf", [float("inf"), 0.5]),
            ("huge-int", [10**400, 0.5]),
        ]:
            yield (f"{stem} {name}", spoiled((("factors", k, "entries", 3), pair)),
                   not_pair, f"factors[{k}].entries[3]")
        yield (f"{stem} count", spoiled((("factors", k, "entries"), records[k]["entries"][1:])),
               f"expected 4^{qubits} [re, im] entries, got {count - 1}", f"factors[{k}].entries")
        yield (f"{stem} kind", spoiled((("factors", last, "kind"), "mystery")),
               "missing or unknown factor kind 'mystery'", f"factors[{last}]")
        yield (f"{stem} level", spoiled((("factors", last, "level_qubits"), 0)),
               "bad level_qubits 0", f"factors[{last}]")
        yield (f"{stem} global_phase", spoiled((("factors", 5), {"kind": "global_phase", "phi": True})),
               "global_phase record needs numeric 'phi'", "factors[5]")
        nan_early = (("factors", early, "entries", 5), [float("nan"), 0.5])
        for name, later in [
            ("kind", (("factors", last, "kind"), "mystery")),
            ("report", (("report", "approx_error"), "x")),
            ("coefficient", (("factors", cartan, "coeffs", 0, 1), float("nan"))),
            ("bad entry", (("factors", k, "entries", 3), [True, 0.5])),
            ("count", (("factors", k, "entries"), [])),
        ]:
            yield (f"{stem} nan then {name}", spoiled(nan_early, later),
                   not_pair, f"factors[{early}].entries[5]")
        yield (f"{stem} level then nan",
               spoiled((("factors", 1, "level_qubits"), 0),
                       (("factors", k, "entries", 3), [0.5, float("nan")])),
               "bad level_qubits 0", "factors[1]")


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.tree.json")), ids=lambda p: p.name)
def test_deserialize_matches_per_record_reading_on_committed_trees(path):
    # every payload is read in one pass over the document; each must have
    # the bits that reading its record alone gives
    text = path.read_text(encoding="utf-8")
    tree = deserialize(text)
    records = [rec for rec in parse_json(text)["factors"] if rec["kind"] != "global_phase"]
    assert len(records) == len(tree.factors)
    payloads = 0
    for i, (rec, factor) in enumerate(zip(records, tree.factors)):
        if "entries" not in rec:
            assert factor.matrix is None
            continue
        n = len(rec["entries"]).bit_length() // 2
        want = entries_to_matrix(rec["entries"], n, f"factors[{i}].entries")
        assert factor.matrix.shape == want.shape and factor.matrix.dtype == want.dtype
        assert factor.matrix.tobytes() == want.tobytes()
        assert want.tobytes() == _entries_oracle(rec["entries"], n).tobytes()
        payloads += 1
    assert payloads > 0


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
