"""The benchmark's tracer (bench/tracing.py) patches qk functions by module
and function name, and names a span for every checker.  A qk function it
lists that no longer exists makes every traced benchmark run fail, so the
names are pinned here against the package.  The tracer is read by path and
never imported as a module."""

import importlib
import runpy
from pathlib import Path

from qk.checks import CHECKERS

TRACING = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracing.py"))


def test_every_traced_function_exists():
    missing = [
        f"qk.{module}.{function}"
        for module, function, _, _ in TRACING["TARGETS"]
        if not callable(getattr(importlib.import_module("qk." + module), function, None))
    ]
    assert missing == []


def test_traced_check_ids_are_the_checkers():
    assert sorted(TRACING["CHECK_IDS"]) == sorted(CHECKERS)
