"""Workloads, timed user operations, the output audit and the summary rules.

Every workload is a closed loop with one client in one single-threaded
process: the next input starts when the previous one has finished. A
workload is a fixed input set built from the seed; the set is run in
passes until the requested seconds have elapsed and at least one pass
is complete. Outputs are audited after each pass, outside the timed
region, with the rules of `kgdecomp verify`. Between inputs, also outside
the timed region, a reference chunk that calls no kgdecomp code is timed,
and each input's time is also given in units of that chunk's time.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import scipy
import scipy.linalg

from kgdecomp import basis as kg_basis
from kgdecomp import engine, factors, fileio, metrics
from kgdecomp.config import DEFAULT_TOLS, Tolerances
from kgdecomp.errors import KgDecompError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "verify"
FIXTURE_POOL = {3: 16, 4: 4}
VERIFY_PICK = {3: 12, 4: 3}
HAAR_COUNT = {3: 160, 4: 4}
SPAN_CAP = 100_000
REF_MATS = 60
REF_PAIRS = 520
REF_EVERY_S = 0.25
REF_WINDOW_S = 0.5


@dataclass(frozen=True)
class Item:
    """One input: the matrix the program receives, as a document, plus its tree for verify."""

    name: str
    n: int
    matrix: np.ndarray
    matrix_doc: str
    tree_doc: Optional[str] = None


@dataclass(frozen=True)
class Audit:
    """Verdict of the `kgdecomp verify` rules on one tree document."""

    ok: bool
    ea: float
    reasons: tuple = ()
    report: Optional[factors.DecompositionReport] = None


@dataclass(frozen=True)
class Workload:
    name: str
    items: Sequence[Item]
    op: Callable[[Item], object]
    check: Callable[[Item, object], Audit]
    decomposes: bool


# ---------------------------------------------------------------- inputs


def _item(name: str, n: int, g: np.ndarray, tree_doc: Optional[str] = None) -> Item:
    return Item(name, n, g, fileio.matrix_to_document(g), tree_doc)


def haar_items(n: int, count: int, seed: int) -> List[Item]:
    """count Haar SU(2^n) inputs; input i draws from default_rng([seed, n, i])."""
    return [
        _item(f"haar{n}_{i}", n,
              metrics.haar_special_unitary(n, np.random.default_rng([seed, n, i])))
        for i in range(count)
    ]


def to_special_unitary(u: np.ndarray) -> np.ndarray:
    """u scaled by det(u)^(-1/N), which puts a unitary into SU(N)."""
    return u * np.linalg.det(u) ** (-1.0 / u.shape[0])


def _permutation(n: int, image: Callable[[int], int]) -> np.ndarray:
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for index in range(dim):
        u[image(index), index] = 1.0
    return u


def _qft(n: int) -> np.ndarray:
    dim = 2**n
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)


def _pauli_string(label: str) -> np.ndarray:
    # PauliWord matrices carry a factor i/2; undo it to get the gate.
    return -2j * kg_basis.pauli_word(label).matrix


def _span_exponential(words, rng: np.random.Generator) -> np.ndarray:
    coeffs = rng.uniform(-1.0, 1.0, len(words))
    return scipy.linalg.expm(np.tensordot(coeffs, np.stack([w.matrix for w in words]), axes=1))


def structured_items(seed: int) -> List[Item]:
    """Compilation gates with degenerate spectra, each scaled into SU.

    Qubit 1 is the most significant bit of the basis index. Only the
    exp(k)-only and exp(m)-only inputs depend on the seed.
    """
    kg3 = kg_basis.build_kg_basis(3)
    toffoli = _permutation(3, lambda i: i ^ 1 if i & 0b110 == 0b110 else i)
    swap13 = _permutation(3, lambda i: (i & 0b010) | ((i >> 2) & 1) | ((i & 1) << 2))
    gates = [
        ("toffoli", 3, toffoli),
        ("ccz", 3, np.diag([1.0] * 7 + [-1.0]).astype(complex)),
        ("qft3", 3, _qft(3)),
        ("qft4", 4, _qft(4)),
        ("swap13", 3, swap13),
        ("xxx", 3, _pauli_string("XXX")),
        ("iiz", 3, _pauli_string("IIZ")),
        ("identity3", 3, np.eye(8, dtype=complex)),
        ("identity4", 4, np.eye(16, dtype=complex)),
        ("exp_k3", 3, _span_exponential(kg3.k_set, np.random.default_rng([seed, 1]))),
        ("exp_m3", 3, _span_exponential(kg3.m_set, np.random.default_rng([seed, 2]))),
    ]
    return [_item(name, n, to_special_unitary(u)) for name, n, u in gates]


def fixture_paths(n: int, index: int):
    stem = f"n{n}_{index:02d}"
    return FIXTURES / f"{stem}.matrix.json", FIXTURES / f"{stem}.tree.json"


def verify_items(seed: int) -> List[Item]:
    """A seeded pick from the committed n=3 and n=4 tree fixtures, shuffled."""
    rng = np.random.default_rng([seed, 7])
    items = []
    for n, pick in VERIFY_PICK.items():
        for index in sorted(rng.choice(FIXTURE_POOL[n], size=pick, replace=False)):
            matrix_path, tree_path = fixture_paths(n, int(index))
            matrix_doc = matrix_path.read_text(encoding="utf-8")
            _, g = fileio.matrix_from_document(matrix_doc)
            items.append(Item(f"tree{n}_{index:02d}", n, g, matrix_doc,
                              tree_path.read_text(encoding="utf-8")))
    return [items[i] for i in rng.permutation(len(items))]


def warm_bases(max_n: int) -> None:
    """Builds every basis up to max_n and materializes its word matrices."""
    for n in range(2, max_n + 1):
        kg = kg_basis.build_kg_basis(n)
        for words in (kg.m_set, kg.k_set, kg.h_set, kg.f_set):
            for word in words:
                word.matrix


# ---------------------------------------------------------- operations


def audit(g: np.ndarray, n: int, tree_doc: str, tols: Tolerances = DEFAULT_TOLS) -> Audit:
    """Re-expands a deserialized tree and applies the `kgdecomp verify` rules.

    Requires ||G - product|| <= tols.reconstruct * max(n - 2, 1), unitarity
    and determinant defects of every payload factor <= tols.structure * 2^n,
    and no Cartan label outside its basis. The tree's own approx_error is
    not trusted.
    """
    try:
        tree = factors.deserialize(tree_doc)
        if tree.n_total != n:
            return Audit(False, math.inf, (f"tree is for n = {tree.n_total}, input has n = {n}",))
        ea = float(np.linalg.norm(g - factors.product(tree)))
        defects = [factors.factor_defects(f) for f in tree.factors]
    except KgDecompError as exc:
        return Audit(False, math.inf, (f"{type(exc).__name__}: {exc}",))
    reasons = []
    threshold = tols.reconstruct * max(n - 2, 1)
    if not ea <= threshold:
        reasons.append(f"E_a {ea:.3e} above {threshold:.3e}")
    limit = tols.structure * 2**n
    for index, found in enumerate(defects):
        for key in ("unitarity", "det"):
            if key in found and not found[key] <= limit:
                reasons.append(f"factor {index}: {key} defect {found[key]:.3e}")
        if found.get("bad_labels", 0) > 0:
            reasons.append(f"factor {index}: {int(found['bad_labels'])} unknown Cartan labels")
    return Audit(not reasons, ea, tuple(reasons), tree.report)


def decompose_op(item: Item) -> str:
    """matrix document -> decompose_full -> tree document (`kgdecomp decompose`)."""
    n, g = fileio.matrix_from_document(item.matrix_doc)
    return factors.serialize(engine.decompose_full(g, n))


def verify_op(item: Item) -> Audit:
    """matrix and tree documents -> audit (`kgdecomp verify`)."""
    n, g = fileio.matrix_from_document(item.matrix_doc)
    return audit(g, n, item.tree_doc)


def _check_tree(item: Item, tree_doc: str) -> Audit:
    return audit(item.matrix, item.n, tree_doc)


def _check_verdict(item: Item, verdict: Audit) -> Audit:
    return verdict


def build_workload(name: str, seed: int) -> Workload:
    """The workload's inputs; this is the set-up that setup_s times."""
    if name == "verify":
        items = verify_items(seed)
        warm_bases(max(item.n for item in items))
        return Workload(name, items, verify_op, _check_verdict, decomposes=False)
    if name == "structured":
        items = structured_items(seed)
    elif name in ("haar3", "haar4"):
        n = int(name[-1])
        items = haar_items(n, HAAR_COUNT[n], seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    warm_bases(max(item.n for item in items))
    return Workload(name, items, decompose_op, _check_tree, decomposes=True)


# ------------------------------------------------------ reference speed


class ReferenceClock:
    """Times a fixed chunk of NumPy and Python work that calls no kgdecomp code.

    On a shared host the speed of a core drifts by up to 2x for seconds to
    minutes at a time, and no statistic of one run's wall times removes
    that. The chunk runs between inputs, outside the timed region, at most
    every REF_EVERY_S. An input's time divided by the mean chunk time
    around it is its time in reference units ("ref"), which the drift
    cancels out of. A change to the program moves that quotient; the chunk
    stays the same.

    The drift slows small NumPy calls and Python object work by different
    factors, and the program does both. The chunk therefore has two halves
    of about equal time: eigh, a matrix exponential and a Python loop over
    REF_MATS Hermitian 8x8 matrices, and a JSON round trip of REF_PAIRS
    complex numbers through Python objects.
    """

    def __init__(self):
        rng = np.random.default_rng(20250905)
        shape = (REF_MATS, 8, 8)
        mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._mats = list(mats + np.conj(np.swapaxes(mats, -1, -2)))
        self._text = json.dumps(rng.standard_normal((REF_PAIRS, 2)).tolist())
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self.sink = self._chunk()

    def _chunk(self) -> float:
        acc = 0.0
        for h in self._mats:
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(1j * w)) @ v.conj().T
            acc += abs(np.trace(u @ h)) + sum(float(x) for x in w)
        values = {i: complex(re, im) for i, (re, im) in enumerate(json.loads(self._text))}
        acc += sum(abs(z) for z in values.values())
        return acc + len(json.dumps([[z.real, z.imag] for z in values.values()]))

    def probe(self) -> None:
        start = time.perf_counter()
        self.sink += self._chunk()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def probe_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= REF_EVERY_S:
            self.probe()

    def around(self, start: float, end: float) -> float:
        """Mean chunk time of the probes within REF_WINDOW_S of [start, end].

        The window always holds the last probe before start and the first
        after end, when they exist.
        """
        lo = min(bisect_left(self.starts, start - REF_WINDOW_S),
                 max(bisect_left(self.starts, start) - 1, 0))
        hi = max(bisect_right(self.starts, end + REF_WINDOW_S),
                 bisect_left(self.starts, end) + 1)
        return statistics.fmean(self.seconds[lo:hi])

    def relative(self, start: float, elapsed: float) -> float:
        """elapsed in reference units; a failure (inf) stays unbounded."""
        if math.isinf(elapsed):
            return elapsed
        return elapsed / self.around(start, start + elapsed)


# ---------------------------------------------------------- measurement


@dataclass
class Measurement:
    """Per-input times (inf for a failure), verdicts and pass totals.

    times, starts and rel_times are per input and per untraced attempt;
    rel_times and rel_batches are in reference units.
    """

    times: List[List[float]]
    starts: List[List[float]] = field(default_factory=list)
    rel_times: List[List[float]] = field(default_factory=list)
    pass_attempts: List[List[tuple]] = field(default_factory=list)
    rel_batches: List[float] = field(default_factory=list)
    ref_chunk_s: float = math.nan
    errors: Dict[int, str] = field(default_factory=dict)
    audits: Dict[int, Audit] = field(default_factory=dict)
    batches: List[float] = field(default_factory=list)
    traced_batches: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


def _attempt(m: Measurement, index: int, fn: Callable, *args) -> tuple:
    """Times fn(*args); a KgDecompError is recorded and timed as inf."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except KgDecompError as exc:
        m.errors[index] = type(exc).__name__
        return index, math.inf, None, t0
    return index, time.perf_counter() - t0, out, t0


def _settle(wl: Workload, m: Measurement, traced: bool, index: int, elapsed: float, out,
            start: float) -> float:
    """Counts one attempt and audits its output; returns its time, inf on failure."""
    m.attempted += 1
    if out is not None:
        verdict = wl.check(wl.items[index], out)
        m.audits[index] = verdict
        if not verdict.ok:
            m.wrong += 1
            elapsed = math.inf
    if math.isinf(elapsed):
        m.failed += 1
    if not traced:
        m.times[index].append(elapsed)
        m.starts[index].append(start)
    return elapsed


def measure(wl: Workload, seconds: float, tracer=None) -> Measurement:
    """Runs the workload's input set in passes and audits every output.

    Untraced, the run stops at the first input boundary after `seconds`
    once a pass is complete. With a tracer, each input runs untraced and
    then traced, back to back, so that both see the same machine speed;
    the run stops after a complete pass, once `seconds` have elapsed or
    the span log holds SPAN_CAP spans. A reference probe runs before an
    untraced input when one is due, and once after the last input.
    """
    m = Measurement(times=[[] for _ in wl.items], starts=[[] for _ in wl.items])
    ref = ReferenceClock()
    start = time.perf_counter()
    pass_no = 0
    while True:
        done = {False: [], True: []}
        for index, item in enumerate(wl.items):
            ref.probe_if_due()
            done[False].append(_attempt(m, index, wl.op, item))
            if tracer is not None:
                tracer.install()
                try:
                    done[True].append(_attempt(m, index, tracer.run_input,
                                               f"p{pass_no}/{item.name}", "bench.solve",
                                               wl.op, item))
                finally:
                    tracer.uninstall()
            elif m.batches and time.perf_counter() - start >= seconds:
                break
        for traced, runs in done.items():
            pass_times = [_settle(wl, m, traced, *run) for run in runs]
            if len(runs) == len(wl.items):
                (m.traced_batches if traced else m.batches).append(batch_seconds(pass_times))
                if not traced:
                    m.pass_attempts.append([(run[3], t) for run, t in zip(runs, pass_times)])
        pass_no += 1
        if time.perf_counter() - start >= seconds or (
                tracer is not None and len(tracer.spans) >= SPAN_CAP):
            break
    ref.probe()
    m.rel_times = [[ref.relative(s, t) for s, t in zip(ss, ts)]
                   for ss, ts in zip(m.starts, m.times)]
    m.rel_batches = [batch_seconds([ref.relative(s, t) for s, t in attempts])
                     for attempts in m.pass_attempts]
    m.ref_chunk_s = statistics.median(ref.seconds)
    return m


# ------------------------------------------------------------ summaries


def median_unbounded(values: Sequence[float]) -> float:
    """Median in which a failure, recorded as inf, is slower than any time."""
    return float(statistics.median(values))


def batch_seconds(times: Sequence[float]) -> float:
    """Time for a whole input set; unbounded if any input failed."""
    return math.inf if any(math.isinf(t) for t in times) else float(sum(times))


def tail(values: Sequence[float]):
    """(percentile, value) of the highest percentile with ten inputs beyond it.

    None below 100 inputs, where that percentile would be under p90 and
    no longer a tail.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 100:
        return None
    return 100.0 * (count - 10) / count, float(ordered[count - 11])


def fail_share(m: Measurement) -> float:
    """Share of the distinct inputs that failed at least once."""
    tried = [ts for ts in m.times if ts]
    return sum(1 for ts in tried if any(math.isinf(t) for t in ts)) / len(tried)


def per_input_times(m: Measurement, relative: bool = False) -> List[float]:
    """Each tried input's median time, in seconds or in reference units."""
    return [median_unbounded(ts) for ts in (m.rel_times if relative else m.times) if ts]


def finite_or_none(x: float):
    return None if math.isinf(x) or math.isnan(x) else x


def end_to_end(m: Measurement) -> dict:
    """Solve and batch times in reference units and in seconds.

    Set-up and memory are added by the caller.
    """
    return {
        "solve_ref_p50": median_unbounded(per_input_times(m, relative=True)),
        "batch_ref": median_unbounded(m.rel_batches),
        "solve_s_p50": median_unbounded(per_input_times(m)),
        "batch_s": median_unbounded(m.batches),
    }


def _stage(label: str) -> str:
    return label.rsplit(":", 1)[-1]


def per_layer(wl: Workload, m: Measurement, tracer) -> dict:
    """Per-layer metrics of one traced pass, plus set-up spans and overhead."""
    passes = len(m.traced_batches)
    spans = tracer.aggregate()
    setup = tracer.aggregate(setup=True)

    def per_pass(name: str, key: str):
        value = spans.get(name, {}).get(key, 0) / passes
        return int(value) if key in ("calls", "mats", "mat_n3") and value == int(value) else value

    out = {
        "basis.build_kg_basis.s": setup.get("basis.build_kg_basis", {}).get("s", 0.0),
        "metrics.haar_special_unitary.s": setup.get("metrics.haar_special_unitary", {}).get("s", 0.0),
    }
    keys = {
        "linalg.expm_skew_many": ("calls", "mats", "mat_n3", "self_s"),
        "linalg.expm_skew": ("calls", "self_s"),
        "linalg.project_onto_span": ("calls", "self_s"),
        "linalg.eigenphase_mismatch": ("self_s",),
        "linalg.commutation_defect": ("self_s",),
        "linalg.logm_unitary": ("calls", "self_s"),
        "linalg.nearest_special_unitary": ("calls",),
        "involutions.apply": ("calls", "self_s"),
        "engine.compute_m": ("calls", "self_s"),
        "engine.optimizer": ("calls", "self_s"),
        "engine.optimizer.newton": ("self_s",),
        "engine.extract": ("self_s",),
        "factors.serialize": ("self_s",),
        "factors.deserialize": ("self_s",),
        "factors.product": ("self_s",),
        "factors.expand": ("calls",),
        "factors.factor_defects": ("self_s",),
        "fileio.dump_json": ("self_s",),
        "fileio.parse_json": ("self_s",),
        "fileio.matrix_from_document": ("self_s",),
    }
    for name, wanted in keys.items():
        for key in wanted:
            out[f"{name}.{key}"] = per_pass(name, key)
    for n in (3, 4):
        out[f"engine.decompose_one_level.self_s.n{n}"] = per_pass(
            f"engine.decompose_one_level.n{n}", "self_s")
    out["engine.reconstruct.s"] = per_pass("engine.reconstruct", "s")
    out["engine.decompose_full.s"] = per_pass("engine.decompose_full", "s")
    out["engine.optimizer.starts"] = per_pass("engine.optimizer.newton", "calls")

    iters = {"h": 0, "f0": 0, "f1": 0}
    es_max = 0.0
    for verdict in m.audits.values():
        report = verdict.report
        if report is None:
            continue
        if wl.decomposes:
            for label, count in report.optimizer_stats:
                iters[_stage(label)] += count
        es_max = max([es_max] + [v for _, v in report.subspace_errors])
    out["engine.optimizer.iters"] = sum(iters.values())
    for stage, count in iters.items():
        out[f"engine.optimizer.iters.{stage}"] = count
    out["metrics.ea_max"] = max([0.0] + [a.ea for a in m.audits.values()])
    out["metrics.es_max"] = es_max
    out["trace.overhead_s"] = median_unbounded(m.traced_batches) - median_unbounded(m.batches)
    return out


def host_record() -> dict:
    """Where the numbers were taken: cores, versions, BLAS, thread pins."""
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
