"""Every function the benchmark tracer wraps must exist under the name it
patches. The tracer (perfbench/spans.py) replaces each target with
setattr at the caller's lookup name, so renaming or deleting one of those
names breaks `perfbench/run.py --trace 1`; this test catches it first."""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _, _ in spans.SPAN_TARGETS],
    ids=[f"{owner}.{attr}" for owner, attr, _, _ in spans.SPAN_TARGETS],
)
def test_span_target_is_callable(owner, attr):
    target = getattr(spans._resolve(owner), attr, None)
    assert callable(target), f"{owner}.{attr} is missing or not callable"
