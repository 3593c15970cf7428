"""Every exported name resolves, and README's entry points are exported.

A stale string in an `__all__` list fails only on `import *`, which no
other test does, so a deleted function could stay advertised."""

import importlib
import pkgutil
import re
from pathlib import Path

import kgdecomp

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["kgdecomp"] + [
    f"kgdecomp.{info.name}" for info in pkgutil.iter_modules(kgdecomp.__path__)
]


def test_every_exported_name_resolves():
    stale = []
    for name in MODULES:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), name
        stale += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
    assert not stale, stale


def test_readme_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    # the bullet list that follows the "Lower-level entry points" line
    bullets = text.split("Lower-level entry points", 1)[1].split("\n\n")[1]
    listed = re.findall(r"`(\w+)\(", bullets)
    assert len(listed) >= 5, listed
    unexported = [name for name in listed if name not in kgdecomp.__all__]
    assert not unexported, unexported
