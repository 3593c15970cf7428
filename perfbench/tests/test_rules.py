"""The benchmark's own rules: unbounded failures, fail_share, audit, trace
accounting and reference units.

Run with `python3 -m pytest perfbench/tests`; the repository's test suite
does not collect them.
"""

import json
import math

import numpy as np
import pytest

import bench
import spans
from kgdecomp import engine, fileio


def _fixture(n=3, index=0):
    matrix_path, tree_path = bench.fixture_paths(n, index)
    matrix_doc = matrix_path.read_text(encoding="utf-8")
    _, g = fileio.matrix_from_document(matrix_doc)
    return bench.Item(f"tree{n}_{index:02d}", n, g, matrix_doc,
                      tree_path.read_text(encoding="utf-8"))


def test_failure_is_unbounded_in_percentiles_and_batch():
    assert bench.median_unbounded([0.1, 0.2, math.inf]) == 0.2
    assert bench.median_unbounded([0.1, math.inf, math.inf]) == math.inf
    assert bench.median_unbounded([0.1, math.inf]) == math.inf
    assert bench.batch_seconds([0.5, 0.25]) == 0.75
    assert bench.batch_seconds([0.5, math.inf]) == math.inf
    assert bench.finite_or_none(math.inf) is None


def test_reference_units_use_the_probes_around_each_input():
    clock = bench.ReferenceClock()
    clock.starts = [0.0, 1.0, 1.2, 1.4, 5.0]
    clock.seconds = [9.0, 0.01, 0.02, 0.03, 0.05]
    # Within REF_WINDOW_S of [1.1, 1.3]: the probes at 1.0, 1.2 and 1.4.
    assert clock.around(1.1, 1.3) == pytest.approx(0.02)
    # None within the window of [2.5, 4.0]: the nearest before and after.
    assert clock.around(2.5, 4.0) == pytest.approx(0.04)
    assert clock.relative(2.5, 1.5) == pytest.approx(37.5)
    assert clock.relative(2.5, math.inf) == math.inf


def test_tail_is_highest_percentile_with_ten_beyond():
    assert bench.tail([float(i) for i in range(99)]) is None
    percentile, value = bench.tail([float(i) for i in range(200)])
    assert percentile == 95.0
    assert value == 189.0
    assert bench.tail([float(i) for i in range(199)] + [math.inf]) == (95.0, 189.0)


def test_fail_share_counts_toffoli_as_failure():
    # Toffoli fails in compute_m at this commit (eigenvalues at -1); if the
    # log is made branch-safe, this test must pick another failing gate.
    gates = {item.name: item for item in bench.structured_items(seed=0)}
    wl = bench.Workload("t", [gates["identity3"], gates["toffoli"]],
                        bench.decompose_op, bench._check_tree, decomposes=True)
    m = bench.measure(wl, seconds=0.0)
    assert (m.attempted, m.failed, m.wrong) == (2, 1, 0)
    assert bench.fail_share(m) == 0.5
    assert m.errors == {1: "SubspaceViolationError"}
    times = bench.per_input_times(m)
    assert math.isfinite(times[0]) and times[1] == math.inf
    assert m.batches == [math.inf] and m.rel_batches == [math.inf]
    assert math.isfinite(bench.per_input_times(m, relative=True)[0])


def test_structured_gates_are_special_unitary():
    for item in bench.structured_items(seed=3):
        dim = 2**item.n
        assert np.linalg.norm(item.matrix @ item.matrix.conj().T - np.eye(dim)) < 1e-12
        assert abs(np.linalg.det(item.matrix) - 1.0) < 1e-12


def test_audit_rejects_one_perturbed_cartan_coefficient():
    item = _fixture()
    assert bench.audit(item.matrix, item.n, item.tree_doc).ok
    doc = json.loads(item.tree_doc)
    cartan = next(f for f in doc["factors"] if f["kind"] == "cartan_exp")
    cartan["coeffs"][0][1] += 1e-6
    verdict = bench.audit(item.matrix, item.n, fileio.dump_json(doc))
    assert not verdict.ok
    assert verdict.reasons[0].startswith("E_a")


def test_audit_rejects_unknown_cartan_label():
    item = _fixture()
    doc = json.loads(item.tree_doc)
    cartan = next(f for f in doc["factors"] if f["kind"] == "cartan_exp")
    cartan["coeffs"][0][0] = "IIY"  # in neither H3 nor F3
    verdict = bench.audit(item.matrix, item.n, fileio.dump_json(doc))
    assert not verdict.ok and verdict.reasons[0].startswith("ParseError")


def _check_accounting(tracer, input_id):
    mine = [s for s in tracer.spans if s[0] == input_id]
    roots = [s for s in mine if s[2] is None]
    assert len(roots) == 1 and roots[0][3] == "bench.solve"
    ids = {s[1] for s in mine}
    assert all(s[2] in ids for s in mine if s[2] is not None)
    total = roots[0][5] - roots[0][4]
    assert abs(sum(s[6] for s in mine) - total) < 1e-9 * max(1.0, len(mine))
    assert all(s[6] >= -1e-9 for s in mine)


def test_trace_self_time_sums_to_span_total():
    original = engine.expm_skew_many
    tracer = spans.Tracer()
    haar = bench.haar_items(3, 1, seed=11)[0]
    tracer.install()
    try:
        tracer.run_input("decompose", "bench.solve", bench.decompose_op, haar)
        tracer.run_input("verify", "bench.solve", bench.verify_op, _fixture())
    finally:
        tracer.uninstall()
    assert engine.expm_skew_many is original
    _check_accounting(tracer, "decompose")
    _check_accounting(tracer, "verify")
    names = {s[3] for s in tracer.spans}
    assert {"engine.optimizer", "linalg.expm_skew_many", "engine.decompose_one_level.n3",
            "factors.serialize", "fileio.dump_json", "factors.product"} <= names
    assert sum(1 for s in tracer.spans if s[3] == "engine.optimizer.newton") >= 3
