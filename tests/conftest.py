"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py`` as a module, loaded from its file alone."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def traced_targets():
    """(module, attribute path) of every toricsim call the benchmark tracer
    wraps, read from ``perfbench/spans.py`` without installing the tracer."""
    return _load("spans").TARGETS


@pytest.fixture(scope="session")
def benchmark_workloads():
    """workload name -> the toricsim calls of one benchmark pass, read from
    ``perfbench/workloads.py``."""
    return _load("workloads").WORKLOADS


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
