"""Command-line interface tests, run in-process through main()."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

import kgdecomp.cli
import kgdecomp.factors
from kgdecomp import (
    OptimizerFailedError,
    build_kg_basis,
    expm_skew,
    haar_special_unitary,
)
from kgdecomp.cli import build_parser, main
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
    (["bench", "--n", "3", "--count", "1", "--seed", "-1"], "--seed"),
    # bench has no thread pool, so --threads is an unrecognized argument
    (["bench", "--n", "3", "--count", "1", "--threads", "0"], "--threads"),
    (["compare-bch", "g.json", "--order", "0"], "--order"),
    (["compare-bch", "g.json", "--order", "9"], "--order"),
    (["bench", "--n", "1", "--count", "1"], "--n"),
    (["bench", "--n", "3", "--count", "-1"], "--count"),
    (["basis", "--n", "1"], "--n"),
    # the optimizer budget has no flags: these are unrecognized arguments
    (["decompose", "g.json", "--max-iters", "0"], "--max-iters"),
    (["bench", "--n", "3", "--count", "1", "--restarts", "-1"], "--restarts"),
    (["decompose", "g.json", "--seed", "1"], "--seed"),
    # a NaN bound once passed every tree and a negative one ran the whole
    # decomposition before failing it
    (["decompose", "g.json", "--tol-reconstruct", "nan"], "--tol-reconstruct"),
    (["decompose", "g.json", "--tol-reconstruct", "-1"], "--tol-reconstruct"),
    (["verify", "g.json", "t.json", "--tol-reconstruct", "nan"], "--tol-reconstruct"),
    # `m_norm > nan` is false, so a NaN or infinite bound switched the
    # series-ball guard off, and a negative one ran the involution log
    # before refusing
    (["compare-bch", "g.json", "--max-norm", "nan"], "--max-norm"),
    (["compare-bch", "g.json", "--max-norm", "inf"], "--max-norm"),
    (["compare-bch", "g.json", "--max-norm", "-1"], "--max-norm"),
])
def test_out_of_range_optimizer_flags_are_usage_errors(argv, field, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command, removed", [
    ("decompose", ("--threads", "--ingest-tol", "--tol-subspace", "--max-iters",
                   "--restarts", "--seed")),
    ("compare-bch", ("--ingest-tol",)),
    ("bench", ("--threads", "--max-iters", "--restarts")),
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


def test_verify_reads_a_long_cartan_label(tmp_path, su8_file, capsys):
    # a valid 3000-letter H3000 label once ended in a RecursionError
    # traceback inside deserialize
    matrix_path, _ = su8_file
    doc = {
        "format": "kgdecomp-tree", "version": 1, "n_total": 3000, "phase": 0.0,
        "report": None,
        "factors": [{"kind": "cartan_exp", "level_qubits": 3000, "basis": "H3000",
                     "coeffs": [["X" * 3000, 0.1]]}],
    }
    long_label = tmp_path / "long.json"
    long_label.write_text(dump_json(doc))
    capsys.readouterr()
    assert main(["verify", str(matrix_path), str(long_label)]) == 2
    err = capsys.readouterr().err
    assert "dimension mismatch" in err and "n = 3000" in err


@pytest.mark.parametrize("command, kind, level, location", [
    ("decompose", None, None, "[entries]"),
    ("verify", "sub_unitary", 9000, "[factors[0]]"),
    ("verify", "last_qubit", 4, "[factors[0]]"),
    ("verify", "sub_unitary", 5, "[factors[0]]"),
])
def test_out_of_register_document_is_a_parse_failure(tmp_path, su8_file, command,
                                                     kind, level, location, capsys):
    # these once ended in a traceback (formatting 4^8000 or 4^8999 entries)
    # or in exit 1 from expand, after the whole document was read
    matrix_path, _ = su8_file
    bad = tmp_path / "bad.json"
    if command == "decompose":
        bad.write_text(dump_json({"n": 8000, "entries": []}))
        argv = ["decompose", str(bad)]
    else:
        doc = {"format": "kgdecomp-tree", "version": 1, "n_total": 3, "phase": 0.0,
               "report": None,
               "factors": [{"kind": kind, "level_qubits": level, "entries": []}]}
        bad.write_text(dump_json(doc))
        argv = ["verify", str(matrix_path), str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"parse error {location}" in err
    assert "(at " not in err


@pytest.mark.parametrize("repair", [False, True])
def test_decompose_refuses_one_qubit_input(tmp_path, repair, monkeypatch, capsys):
    # n = 1 once reached decompose_full and ended in a ValueError traceback
    path = tmp_path / "one.json"
    path.write_text(matrix_to_document(np.eye(2, dtype=complex)))

    def refuse(*args, **kwargs):
        raise AssertionError("work started on a one-qubit input")

    monkeypatch.setattr(kgdecomp.cli, "nearest_special_unitary", refuse)
    monkeypatch.setattr(kgdecomp.cli, "decompose_full", refuse)
    assert main(["decompose", str(path)] + (["--repair"] if repair else [])) == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_missing_file_is_a_parse_failure(capsys):
    assert main(["decompose", "/nonexistent/file.json"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(matrix_to_document(np.eye(8, dtype=complex)))
    out = tmp_path / "missing" / "out.json"
    assert main(["decompose", str(path), "-o", str(out)]) == 2
    assert f"cannot write [{out}]: " in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_path_fails_before_decomposing(tmp_path, capsys,
                                                         monkeypatch):
    def no_decomposition(*args, **kwargs):
        raise AssertionError("decompose_full ran before the output check")

    monkeypatch.setattr(kgdecomp.cli, "decompose_full", no_decomposition)
    path = tmp_path / "id.json"
    path.write_text(matrix_to_document(np.eye(8, dtype=complex)))
    out = tmp_path / "missing" / "out.json"
    assert main(["decompose", str(path), "-o", str(out)]) == 2
    assert f"cannot write [{out}]: " in capsys.readouterr().err


def test_failed_decomposition_leaves_no_output_file(tmp_path, monkeypatch):
    def failing_decomposition(*args, **kwargs):
        raise OptimizerFailedError("no restart converged")

    monkeypatch.setattr(kgdecomp.cli, "decompose_full", failing_decomposition)
    path = tmp_path / "id.json"
    path.write_text(matrix_to_document(np.eye(8, dtype=complex)))
    out = tmp_path / "out.json"
    assert main(["decompose", str(path), "-o", str(out)]) == 4
    assert not out.exists()
    # an existing file is left as it was
    out.write_text("old tree\n")
    assert main(["decompose", str(path), "-o", str(out)]) == 4
    assert out.read_text() == "old tree\n"


def test_malformed_document_is_a_parse_failure(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["decompose", str(path)]) == 2


@pytest.mark.parametrize("field, location", [("n", "[n]"), ("entry", "[entries[5]]")])
def test_boolean_in_matrix_document_is_a_parse_failure(tmp_path, su8_file,
                                                       field, location, capsys):
    # bool subclasses int, so `"n": true` once read as n = 1 and a
    # `[true, 0]` entry as 1 + 0j
    matrix_path, _ = su8_file
    doc = parse_json(matrix_path.read_text())
    if field == "n":
        doc["n"] = True
    else:
        doc["entries"][5] = [True, 0]
    path = tmp_path / "bool.json"
    path.write_text(dump_json(doc))
    assert main(["decompose", str(path)]) == 2
    assert f"parse error {location}" in capsys.readouterr().err


@pytest.mark.parametrize("document, location", [
    ("matrix", "[entries[5]]"),
    ("tree", "[factors[4].coeffs[0]]"),
])
def test_non_finite_number_in_document_is_a_parse_failure(tmp_path, su8_file,
                                                         document, location, capsys):
    # json.loads reads NaN; it once reached SciPy (decompose) or NumPy's
    # eig (verify) and ended in a traceback
    matrix_path, _ = su8_file
    tree_path = tmp_path / "tree.json"
    assert main(["decompose", str(matrix_path), "-o", str(tree_path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "nan.json"
    if document == "matrix":
        doc = parse_json(matrix_path.read_text())
        doc["entries"][5] = [float("nan"), 0.0]
        bad.write_text(json.dumps(doc))
        argv = ["decompose", str(bad)]
    else:
        doc = parse_json(tree_path.read_text())
        doc["factors"][4]["coeffs"][0][1] = float("nan")
        bad.write_text(json.dumps(doc))
        argv = ["verify", str(matrix_path), str(bad)]
    assert "NaN" in bad.read_text()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"parse error {location}" in err
    # the location is printed once, not again inside the message
    assert err.count(location[1:-1]) == 1


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


def test_compare_bch_rejects_non_special_unitary(tmp_path, capsys):
    path = tmp_path / "scaled.json"
    path.write_text(matrix_to_document(1.1 * np.eye(8, dtype=complex)))
    assert main(["compare-bch", str(path)]) == 3
    assert "not special unitary" in capsys.readouterr().err


def test_compare_bch_refuses_two_qubits(tmp_path, capsys):
    # the n = 2 seed sets are not theta_Z's eigenspaces, so on this input
    # the two splits differ by 2e-2 in m although both reconstruct exactly
    rng = np.random.default_rng(1)
    kg = build_kg_basis(2)
    k = sum(c * w.matrix
            for c, w in zip(rng.uniform(-0.05, 0.05, len(kg.k_set)), kg.k_set))
    m = sum(c * w.matrix
            for c, w in zip(rng.uniform(-0.05, 0.05, len(kg.m_set)), kg.m_set))
    path = tmp_path / "two.json"
    path.write_text(matrix_to_document(expm_skew(k) @ expm_skew(m)))
    assert main(["compare-bch", str(path)]) == 2
    captured = capsys.readouterr()
    assert "comparison needs n >= 3" in captured.err
    assert captured.out == ""


def test_basis_dump(capsys):
    assert main(["basis", "--n", "2", "--set", "H"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["H XX", "H YY", "H ZZ"]
    assert main(["basis", "--n", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 63 + 30 + 4 + 3  # M+K plus K0/K1 repeats, H, F
    assert "K1 ZZZ" in lines and "M IIX" in lines


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_synopsis():
    """Subcommand -> option strings of README's `## Command line` block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    synopsis = {}
    for line in block.strip().splitlines():
        words = line.split()
        assert words[0] == "kgdecomp", line
        synopsis[words[1]] = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", line))
    return synopsis


def test_readme_synopsis_lists_every_option():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    synopsis = _readme_synopsis()
    assert set(synopsis) == set(subparsers.choices)
    for command, sub in subparsers.choices.items():
        defined = [
            set(action.option_strings) for action in sub._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        ]
        listed = synopsis[command]
        # each option appears under one of its spellings, and nothing else does
        unlisted = [sorted(strings) for strings in defined if not strings & listed]
        unknown = sorted(listed - set().union(*defined))
        assert not unlisted and not unknown, (command, unlisted, unknown)
