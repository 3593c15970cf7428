"""One benchmark process: set-up, timed passes, audits, one JSON line on stdout.

run.py starts it with the OpenMP/OpenBLAS/MKL thread counts pinned to 1
in its environment, so the pins hold before NumPy is first imported; the
worker refuses to run without them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import OUT_DIR, ROOT, THREAD_VARS


def _verdicts(wl, m) -> list:
    out = []
    for index, item in enumerate(wl.items):
        verdict = m.audits.get(index)
        if index in m.errors:
            out.append([item.name, "fail", m.errors[index]])
        elif verdict is not None and not verdict.ok:
            out.append([item.name, "fail", "audit: " + "; ".join(verdict.reasons)])
        else:
            out.append([item.name, "pass", ""])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pins = {name: os.environ.get(name) for name in THREAD_VARS}
    if any(value != "1" for value in pins.values()):
        print(f"worker: thread counts not pinned to 1 ({pins}); start it through run.py",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import spans

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl = bench.build_workload(args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    m = bench.measure(wl, args.seconds, tracer)
    per_input = bench.per_input_times(m)
    result.update(
        host=dict(bench.host_record(), threads_pinned=pins),
        inputs=len(wl.items),
        passes=len(m.batches),
        attempted=m.attempted,
        failed=m.failed,
        wrong=m.wrong,
        fail_share=bench.fail_share(m),
        verdicts=_verdicts(wl, m),
        tail=bench.tail(per_input),
        end_to_end={
            name: bench.finite_or_none(value) for name, value in bench.end_to_end(m).items()
        },
        peak_rss_mb=bench.peak_rss_mb(),
        ref_chunk_s=m.ref_chunk_s,
    )
    if tracer is not None:
        result["traced_passes"] = len(m.traced_batches)
        result["per_layer"] = {
            name: bench.finite_or_none(value)
            for name, value in bench.per_layer(wl, m, tracer).items()
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        result["trace_file"] = str(path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
