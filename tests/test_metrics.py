"""Metric and benchmark tests: the E_a and E_s definitions, Haar sampler
statistics, and benchmark plumbing."""

import numpy as np
import pytest

from kgdecomp import (
    build_kg_basis,
    commutation_defect,
    decompose_full,
    format_table,
    haar_special_unitary,
    pauli_word,
    product,
    run_benchmark,
)
from kgdecomp.fileio import dump_json, parse_json
from kgdecomp.linalg import _det
from kgdecomp.metrics import summary_to_dict


def test_approx_error_accepts_tree():
    # the report's E_a is the distance from g to the tree's product
    g = haar_special_unitary(3, np.random.default_rng(1))
    tree = decompose_full(g, 3)
    assert np.linalg.norm(g - product(tree)) == pytest.approx(
        tree.report.approx_error, abs=1e-15
    )


def test_subspace_error_zero_inside_span():
    # E_s is commutation_defect against the Cartan words themselves
    kg = build_kg_basis(3)
    h = 0.3 * pauli_word("XXX").matrix - 0.1 * pauli_word("IIX").matrix
    assert commutation_defect(h, kg.h_set) < 1e-15


def _haar_oracle(n, rng):
    """The sampler with det^(-1/N) taken on numpy's complex128 scalar."""
    dim = 2**n
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q * np.complex128(_det(q)) ** (-1.0 / dim)


def test_haar_sampler_keeps_its_seeded_draws():
    # the draws are the benchmark's inputs: a last-bit move in the
    # determinant's root would move every tree built from them
    for n in (1, 2, 3, 4):
        for seed in range(40):
            got = haar_special_unitary(n, np.random.default_rng([seed, n]))
            want = _haar_oracle(n, np.random.default_rng([seed, n]))
            assert got.tobytes() == want.tobytes()


def test_haar_sampler_is_special_unitary_and_deterministic():
    for seed in range(5):
        u = haar_special_unitary(3, np.random.default_rng(seed))
        assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12
    a = haar_special_unitary(3, np.random.default_rng(7))
    b = haar_special_unitary(3, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_haar_sampler_first_entry_moment():
    # E|U_00|^2 = 1/N = 1/4 on 2 qubits; Var|U_00|^2 = 2/(N(N+1)) - 1/N^2
    # = 0.0375, so 3 sigma over 10^4 samples is 5.8e-3
    rng = np.random.default_rng(123)
    count = 10_000
    acc = 0.0
    for _ in range(count):
        acc += abs(haar_special_unitary(2, rng)[0, 0]) ** 2
    mean = acc / count
    assert abs(mean - 0.25) < 3.0 * np.sqrt(0.0375 / count)


def test_haar_sampler_rejects_bad_n():
    with pytest.raises(ValueError):
        haar_special_unitary(0, np.random.default_rng(0))


def test_run_benchmark_basic_aggregation():
    summary = run_benchmark(n=3, count=3, seed=99)
    assert summary.count == 3
    assert summary.failures == 0
    assert len(summary.results) == 3
    assert summary.mean_approx_error < 1e-10
    # three Abelian slots per level decomposition
    assert all(len(r.tree.report.subspace_errors) == 3 for r in summary.results)
    assert summary.mean_subspace_error < 1e-3


def test_run_benchmark_threaded_matches_serial():
    serial = run_benchmark(n=3, count=4, seed=5, threads=1)
    threaded = run_benchmark(n=3, count=4, seed=5, threads=4)
    for a, b in zip(serial.results, threaded.results):
        assert a.tree.report.approx_error == b.tree.report.approx_error
        assert a.tree.report.subspace_errors == b.tree.report.subspace_errors


def test_run_benchmark_keep_trees():
    # every successful sample keeps its tree
    summary = run_benchmark(n=3, count=2, seed=3)
    assert all(r.tree is not None for r in summary.results)


def test_format_table_layout():
    summary = run_benchmark(n=3, count=2, seed=11)
    text = format_table([summary])
    lines = text.splitlines()
    assert "mean E_a" in lines[0] and "failures" in lines[0]
    assert lines[2].split()[0] == "3"
    assert lines[2].split()[1] == "2"


def test_summary_round_trips_through_json():
    summary = run_benchmark(n=3, count=2, seed=12)
    doc = dump_json(summary_to_dict(summary))
    back = parse_json(doc)
    assert back["count"] == 2
    assert back["failures"] == 0
    assert back["mean_approx_error"] == pytest.approx(
        summary.mean_approx_error, rel=1e-15
    )


def test_empty_benchmark_yields_nan_statistics():
    summary = run_benchmark(n=3, count=0, seed=0)
    assert summary.count == 0
    assert np.isnan(summary.mean_approx_error)
    # and the JSON view maps the NaNs to null
    doc = dump_json(summary_to_dict(summary))
    assert parse_json(doc)["mean_approx_error"] is None
