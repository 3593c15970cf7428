"""Command-line interface tests, run in-process through main()."""

import numpy as np
import pytest

import kgdecomp.factors
from kgdecomp import build_kg_basis, expm_skew, haar_special_unitary
from kgdecomp.cli import main
from kgdecomp.fileio import dump_json, matrix_to_document, parse_json


@pytest.fixture
def su8_file(tmp_path):
    g = haar_special_unitary(3, np.random.default_rng(1))
    path = tmp_path / "g.json"
    path.write_text(matrix_to_document(g))
    return path, g


def test_decompose_then_verify_closure(tmp_path, su8_file, capsys):
    matrix_path, _ = su8_file
    tree_path = tmp_path / "tree.json"
    assert main(["decompose", str(matrix_path), "-o", str(tree_path)]) == 0
    out = capsys.readouterr().out
    assert "E_a" in out and "E_s" in out
    assert main(["verify", str(matrix_path), str(tree_path)]) == 0
    assert "VERIFY OK" in capsys.readouterr().out


def test_decompose_identity_to_stdout(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(matrix_to_document(np.eye(8, dtype=complex)))
    assert main(["decompose", str(path)]) == 0
    captured = capsys.readouterr()
    doc = parse_json(captured.out)
    assert doc["format"] == "kgdecomp-tree"
    assert "E_a" in captured.err


def test_decompose_rejects_non_unitary_without_repair(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(matrix_to_document(1.1 * np.eye(8, dtype=complex)))
    assert main(["decompose", str(path)]) == 3
    assert "--repair" in capsys.readouterr().err


def test_decompose_fails_above_reconstruction_bound(su8_file, capsys):
    matrix_path, _ = su8_file
    argv = ["decompose", str(matrix_path), "--tol-reconstruct", "1e-30"]
    assert main(argv) == 1
    assert "reconstruction error" in capsys.readouterr().err


def test_decompose_repairs_when_asked(tmp_path, capsys):
    g = haar_special_unitary(3, np.random.default_rng(2))
    path = tmp_path / "dirty.json"
    path.write_text(matrix_to_document(1.001 * np.exp(0.002j) * g))
    tree_path = tmp_path / "tree.json"
    assert main(["decompose", str(path), "-o", str(tree_path), "--repair"]) == 0
    out = capsys.readouterr().out
    assert "repair distance" in out
    assert "E_a vs raw input" in out


def test_decompose_repair_projects_inputs_inside_ingest_tolerance(tmp_path, capsys):
    # a defect of ~6e-9 passes the 1e-8 ingest check, yet would miss the
    # 1e-9 reconstruction bound unless --repair projects it first
    g = haar_special_unitary(3, np.random.default_rng(6))
    path = tmp_path / "near.json"
    path.write_text(matrix_to_document((1 + 1e-9) * g))
    assert main(["decompose", str(path), "-o", str(tmp_path / "tree.json"),
                 "--repair"]) == 0
    assert "repair distance" in capsys.readouterr().out


def test_decompose_rejects_input_just_outside_ingest_tolerance(tmp_path, capsys):
    g = haar_special_unitary(3, np.random.default_rng(6))
    path = tmp_path / "off.json"
    path.write_text(matrix_to_document((1 + 1e-8) * g))
    assert main(["decompose", str(path)]) == 3
    assert "--repair" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["decompose", "g.json", "--max-iters", "0"], "max_iters"),
    (["bench", "--n", "3", "--count", "1", "--restarts", "-1"], "restarts"),
    (["compare-bch", "g.json", "--order", "0"], "truncation_order"),
    (["compare-bch", "g.json", "--order", "9"], "truncation_order"),
    (["bench", "--n", "1", "--count", "1"], "--n"),
    (["bench", "--n", "3", "--count", "-1"], "--count"),
    (["basis", "--n", "1"], "--n"),
])
def test_out_of_range_optimizer_flags_are_usage_errors(argv, field, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command, removed", [
    ("decompose", ("--threads", "--ingest-tol", "--tol-subspace")),
    ("compare-bch", ("--ingest-tol",)),
])
def test_removed_flags_are_gone(command, removed, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert not any(flag in text for flag in removed)


def test_verify_flags_mismatched_matrix(tmp_path, su8_file, capsys):
    matrix_path, g = su8_file
    tree_path = tmp_path / "tree.json"
    assert main(["decompose", str(matrix_path), "-o", str(tree_path)]) == 0
    # a phase kick of 1e-5 pushes E_a well past the 1e-9 gate
    other = tmp_path / "other.json"
    other.write_text(matrix_to_document(np.exp(1e-5j) * g))
    assert main(["verify", str(other), str(tree_path)]) == 1
    assert "VERIFY FAIL" in capsys.readouterr().out


def test_verify_rejects_cartan_basis_of_another_level(tmp_path, su8_file, capsys):
    matrix_path, _ = su8_file
    tree_path = tmp_path / "tree.json"
    assert main(["decompose", str(matrix_path), "-o", str(tree_path)]) == 0
    doc = parse_json(tree_path.read_text())
    # an H4 word on a level-3 factor once reached expand and failed there
    # with a NumPy shape error instead of a parse error
    record = doc["factors"][4]
    assert record["basis"] == "H3" and record["level_qubits"] == 3
    record["basis"] = "H4"
    record["coeffs"] = [["IIIX", 0.1]]
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(doc))
    capsys.readouterr()
    assert main(["verify", str(matrix_path), str(bad)]) == 2
    assert "[factors[4]]" in capsys.readouterr().err


def test_verify_dimension_mismatch_is_a_parse_failure(tmp_path, su8_file, monkeypatch, capsys):
    matrix_path, _ = su8_file
    tree_path = tmp_path / "tree.json"
    assert main(["decompose", str(matrix_path), "-o", str(tree_path)]) == 0
    small = tmp_path / "small.json"
    small.write_text(
        matrix_to_document(haar_special_unitary(2, np.random.default_rng(3)))
    )
    capsys.readouterr()
    assert main(["verify", str(small), str(tree_path)]) == 2

    # a few hundred bytes may declare a 14-qubit Cartan factor; reading
    # them must not build that level's 4^14 - 1 word basis
    def refuse(n):
        raise AssertionError(f"built the level-{n} basis")

    monkeypatch.setattr(kgdecomp.factors, "build_kg_basis", refuse)
    doc = {
        "format": "kgdecomp-tree", "version": 1, "n_total": 14, "phase": 0.0,
        "report": None,
        "factors": [{"kind": "cartan_exp", "level_qubits": 14, "basis": "H14",
                     "coeffs": []}],
    }
    big = tmp_path / "big.json"
    big.write_text(dump_json(doc))
    capsys.readouterr()
    assert main(["verify", str(matrix_path), str(big)]) == 2
    assert "n = 14" in capsys.readouterr().err


def test_missing_file_is_a_parse_failure(capsys):
    assert main(["decompose", "/nonexistent/file.json"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_malformed_document_is_a_parse_failure(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["decompose", str(path)]) == 2


def test_decompose_is_deterministic(tmp_path, su8_file):
    # byte-identical up to the wall-time diagnostic, which is the one
    # legitimately clock-dependent field in the document
    matrix_path, _ = su8_file
    t1 = tmp_path / "t1.json"
    t2 = tmp_path / "t2.json"
    assert main(["decompose", str(matrix_path), "-o", str(t1)]) == 0
    assert main(["decompose", str(matrix_path), "-o", str(t2)]) == 0

    def strip_clock(text):
        return [line for line in text.splitlines() if "wall_time" not in line]

    assert strip_clock(t1.read_text()) == strip_clock(t2.read_text())


def test_bench_table_and_json(capsys):
    assert main(["bench", "--n", "3", "--count", "2", "--seed", "42"]) == 0
    table = capsys.readouterr().out
    assert "mean E_a" in table
    assert main(
        ["bench", "--n", "3", "--count", "2", "--seed", "42", "--json"]
    ) == 0
    doc = parse_json(capsys.readouterr().out)
    assert doc["count"] == 2 and doc["failures"] == 0


def test_bench_keeps_threads_flag(capsys):
    argv = ["bench", "--n", "3", "--count", "2", "--threads", "2", "--json"]
    assert main(argv) == 0
    doc = parse_json(capsys.readouterr().out)
    assert doc["count"] == 2 and doc["failures"] == 0


def test_bench_zero_count(capsys):
    assert main(["bench", "--n", "3", "--count", "0"]) == 0
    assert "nan" in capsys.readouterr().out


def test_compare_bch_inside_ball(tmp_path, capsys):
    rng = np.random.default_rng(4)
    kg = build_kg_basis(3)
    k = sum(c * w.matrix
            for c, w in zip(rng.uniform(-0.01, 0.01, len(kg.k_set)), kg.k_set))
    m = sum(c * w.matrix
            for c, w in zip(rng.uniform(-0.01, 0.01, len(kg.m_set)), kg.m_set))
    path = tmp_path / "near.json"
    path.write_text(matrix_to_document(expm_skew(k) @ expm_skew(m)))
    assert main(["compare-bch", str(path)]) == 0
    out = capsys.readouterr().out
    assert "involution" in out and "bch[order=6]" in out


def test_compare_bch_refuses_large_norm(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(
        matrix_to_document(haar_special_unitary(3, np.random.default_rng(5)))
    )
    assert main(["compare-bch", str(path)]) == 4
    assert "max-norm" in capsys.readouterr().err


def test_basis_dump(capsys):
    assert main(["basis", "--n", "2", "--set", "H"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["H XX", "H YY", "H ZZ"]
    assert main(["basis", "--n", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 63 + 30 + 4 + 3  # M+K plus K0/K1 repeats, H, F
    assert "K1 ZZZ" in lines and "M IIX" in lines
