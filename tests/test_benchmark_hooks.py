"""The benchmark's tracing and self-test hooks must resolve on the package.

``perfbench/spans.py`` replaces functions by the module attribute their
callers look them up by, and ``perfbench/selftest.py`` patches four more. A
refactor that drops one of those imports breaks a traced benchmark run in
``Tracer.install``; this test catches it in the ordinary suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The attributes perfbench/selftest.py replaces to corrupt one output.
SELFTEST_PATCHED = [
    ("cli", "uniform_subset_rate"),
    ("subset_search", "exhaustive_select"),
    ("subset_search", "bsa_select"),
    ("link", "compute_llrs_block"),
]


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs.
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return [(mod, attr) for mod, attr, *_ in spans.TRACED]


@pytest.mark.parametrize("mod, attr", _traced() + SELFTEST_PATCHED)
def test_hooked_attribute_resolves(mod, attr):
    module = importlib.import_module(f"dmc_shaper.{mod}")
    assert callable(getattr(module, attr, None)), f"dmc_shaper.{mod}.{attr}"
