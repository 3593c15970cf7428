"""Benchmark of kgdecomp's decompose and verify paths.

    python3 perfbench/run.py --workload haar3 --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory. Each workload runs in fresh single-threaded processes:
four set-up-only processes before and four after one measuring process,
whose nine set-up times give the median `setup_s`. With `--trace 1` a
single measuring process records spans around the layers' public
functions and the per-layer metrics replace the end-to-end ones. A
report goes to stdout, ending with one JSON line: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("haar3", "haar4", "verify", "structured")
SETUP_RUNS = 9
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "solve_ref_p50": "ref", "batch_ref": "ref",
                    "peak_rss_mb": "MiB"}
VERDICT_LIST_MAX = 32


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".mats", ".mat_n3", ".starts")) or ".iters" in name:
        return "count"
    if name in ("metrics.ea_max", "metrics.es_max"):
        return "norm"
    return "s"


def spawn_worker(args, deadline: float, setup_only: bool) -> dict:
    """Runs worker.py in a fresh process with pinned thread counts; returns its JSON."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed before the worker started")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return "unbounded" if value is None else f"{value:.6g}"


def report(args, result: dict, setup_runs: list) -> dict:
    """Prints the human-readable report; returns the final JSON object."""
    host = result["host"]
    pins = " ".join(f"{k}={v}" for k, v in host["threads_pinned"].items())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host: nproc={host['nproc']} {host['machine']} python={host['python']} "
          f"numpy={host['numpy']} scipy={host['scipy']} blas={host['blas']}; "
          f"pinned before NumPy import: {pins}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"inputs: {result['inputs']} distinct, {result['passes']} complete untraced "
          f"passes, {attempted} attempted, {failed} failed")
    verdicts = result["verdicts"]
    failing = sum(1 for v in verdicts if v[1] != "pass")
    print(f"verdicts: {failing} of {len(verdicts)} distinct inputs fail, "
          f"fail_share={result['fail_share']:.4g}")
    shown = verdicts if len(verdicts) <= VERDICT_LIST_MAX else [
        v for v in verdicts if v[1] != "pass"]
    for name, verdict, detail in shown:
        print(f"  {name:<12} {verdict}{'  ' + detail if detail else ''}")
    if len(shown) < len(verdicts):
        print(f"  ({len(verdicts) - len(shown)} further inputs pass)")

    if args.trace:
        layers = result["per_layer"]
        for name, value in layers.items():
            print(f"  {name:<42} {_fmt(value)} {per_layer_unit(name)}")
        print(f"tracing overhead (traced - untraced batch_s): "
              f"{_fmt(layers['trace.overhead_s'])} s over {result['traced_passes']} traced "
              f"pass(es); {result['spans']} spans in {result['trace_file']}")
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup_runs),
                      peak_rss_mb=result["peak_rss_mb"])
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<13} {_fmt(values[name])} {unit}")
        print(f"  setup_s runs: {', '.join(f'{s:.4f}' for s in setup_runs)} s")
        print(f"  in seconds: solve_s_p50 {_fmt(values['solve_s_p50'])} s, "
              f"batch_s {_fmt(values['batch_s'])} s; "
              f"1 ref = {result['ref_chunk_s']:.6g} s (median reference chunk)")
        tail = result["tail"]
        if tail is None:
            print(f"  solve_s_tail omitted: {result['inputs']} inputs, fewer than 100")
        else:
            print(f"  solve_s_tail p{tail[0]:.4g} = {tail[1]:.6g} s over "
                  f"{result['inputs']} inputs")
        batch = values["batch_s"]
        if batch:
            print(f"  throughput {result['inputs'] / batch:.4g} inputs/s")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": result["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "kgdecomp" / "__init__.py").is_file():
        print(f"perfbench: no kgdecomp sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_runs = []
        extra_setups = 0 if args.trace else SETUP_RUNS - 1
        for _ in range(extra_setups // 2):
            setup_runs.append(spawn_worker(args, deadline, setup_only=True)["setup_s"])
        result = spawn_worker(args, deadline, setup_only=False)
        for _ in range(extra_setups - extra_setups // 2):
            setup_runs.append(spawn_worker(args, deadline, setup_only=True)["setup_s"])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup_runs.append(result["setup_s"])
    print(json.dumps(report(args, result, setup_runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
