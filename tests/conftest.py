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


@pytest.fixture(scope="session")
def csv_columns():
    """Reader of an emitted CSV: column name -> tuple of its cells, each
    read as a float where it parses as one (the schema line skipped)."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    def read(path: Path) -> dict[str, tuple]:
        header, *rows = path.read_text().splitlines()[1:]
        cells = [tuple(map(cell, row.split(","))) for row in rows]
        return {name: tuple(row[i] for row in cells)
                for i, name in enumerate(header.split(","))}
    return read
