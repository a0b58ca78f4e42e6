"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="session")
def traced_targets():
    """(module, attribute path) of every toricsim call the benchmark tracer
    wraps, read from ``perfbench/spans.py`` without installing the tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS
