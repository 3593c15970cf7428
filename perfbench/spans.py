"""In-memory span tracer installed from the benchmark's side of each layer.

Wrappers replace a public function at the name its caller looks up (for
example `kgdecomp.engine.expm_skew_many`, because the engine imports that
name from linalg), so the program itself carries no tracing code. Spans
of one input share the input id and point at their parent span; a span's
self time is its duration minus the time its direct children cover.
Nothing is written until `write_jsonl` is called at exit.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

SETUP = "setup"


def _batch_shape(args, kwargs) -> dict:
    stack = args[0] if args else kwargs["stack"]
    mats = 1
    for size in stack.shape[:-2]:
        mats *= int(size)
    dim = int(stack.shape[-1])
    return {"mats": mats, "mat_n3": mats * dim**3}


def _level_name(args, kwargs) -> str:
    n = args[1] if len(args) > 1 else kwargs["n"]
    return f"engine.decompose_one_level.n{n}"


# (module, attribute, span name or name function, extra counters). The
# module is where the caller looks the name up, not where it is defined.
SPAN_TARGETS: Tuple[tuple, ...] = (
    ("kgdecomp.basis", "build_kg_basis", "basis.build_kg_basis", None),
    ("kgdecomp.engine", "build_kg_basis", "basis.build_kg_basis", None),
    ("kgdecomp.factors", "build_kg_basis", "basis.build_kg_basis", None),
    ("kgdecomp.metrics", "haar_special_unitary", "metrics.haar_special_unitary", None),
    ("kgdecomp.involutions:AxisInvolution", "apply", "involutions.apply", None),
    ("kgdecomp.engine", "expm_skew_many", "linalg.expm_skew_many", _batch_shape),
    ("kgdecomp.engine", "expm_skew", "linalg.expm_skew", None),
    ("kgdecomp.factors", "expm_skew", "linalg.expm_skew", None),
    ("kgdecomp.engine", "logm_unitary", "linalg.logm_unitary", None),
    ("kgdecomp.engine", "project_onto_span", "linalg.project_onto_span", None),
    ("kgdecomp.engine", "eigenphase_mismatch", "linalg.eigenphase_mismatch", None),
    ("kgdecomp.engine", "commutation_defect", "linalg.commutation_defect", None),
    ("kgdecomp.engine", "nearest_special_unitary", "linalg.nearest_special_unitary", None),
    ("kgdecomp.engine", "compute_m", "engine.compute_m", None),
    ("kgdecomp.engine", "_minimize_full", "engine.optimizer", None),
    # One Newton polish ends every optimizer start, so its calls count starts.
    ("kgdecomp.engine", "_newton_polish", "engine.optimizer.newton", None),
    ("kgdecomp.engine", "decompose_one_level", _level_name, None),
    ("kgdecomp.engine", "extract_subunitary", "engine.extract", None),
    ("kgdecomp.engine", "extract_last_qubit", "engine.extract", None),
    ("kgdecomp.engine", "expand", "engine.reconstruct", None),
    ("kgdecomp.engine", "decompose_full", "engine.decompose_full", None),
    ("kgdecomp.factors", "serialize", "factors.serialize", None),
    ("kgdecomp.factors", "deserialize", "factors.deserialize", None),
    ("kgdecomp.factors", "product", "factors.product", None),
    ("kgdecomp.factors", "expand", "factors.expand", None),
    ("kgdecomp.factors", "factor_defects", "factors.factor_defects", None),
    # fileio.dump_json recurses through its own module name, which stays
    # unwrapped, so one serialize call yields one dump_json span.
    ("kgdecomp.factors", "dump_json", "fileio.dump_json", None),
    ("kgdecomp.factors", "parse_json", "fileio.parse_json", None),
    ("kgdecomp.fileio", "parse_json", "fileio.parse_json", None),
    ("kgdecomp.fileio", "matrix_from_document", "fileio.matrix_from_document", None),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records nested spans; install() patches the targets, uninstall() restores."""

    def __init__(self):
        # (input id, span id, parent id, name, start, end, self seconds, extras)
        self.spans: List[tuple] = []
        self.input_id: object = SETUP
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    def _enter(self) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, extras) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append(
            (self.input_id, frame[0], frame[1], name, start, end, duration - frame[2], extras)
        )

    def span(self, fn: Callable, name, extra: Optional[Callable] = None) -> Callable:
        """fn wrapped so that every call records one span."""

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            extras = extra(args, kwargs) if extra else None
            frame = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, label, start, extras)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, extra in SPAN_TARGETS:
            target = _resolve(owner)
            original = getattr(target, attr)
            self._patches.append((target, attr, original))
            setattr(target, attr, self.span(original, name, extra))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def run_input(self, input_id, name: str, fn: Callable, *args):
        """Runs fn(*args) as the root span of one input."""
        self.input_id = input_id
        try:
            return self.span(fn, name)(*args)
        finally:
            self.input_id = None

    def aggregate(self, setup: bool = False) -> Dict[str, dict]:
        """Per span name: calls, total and self seconds, summed extras.

        setup=True sums only the spans recorded during set-up; otherwise
        only the spans of inputs.
        """
        out: Dict[str, dict] = {}
        for input_id, _, _, name, start, end, self_s, extras in self.spans:
            if (input_id == SETUP) != setup:
                continue
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
            for key, value in (extras or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for input_id, span_id, parent, name, start, end, self_s, extras in self.spans:
                record = {
                    "input": input_id,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self_s": self_s,
                }
                if extras:
                    record.update(extras)
                handle.write(json.dumps(record) + "\n")
