"""No toricsim module imports a private name from another one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "toricsim"


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``from .x import _name`` or ``from
    toricsim.x import _name`` in ``source``; a dunder such as
    ``__version__`` is public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("toricsim")):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return found


def test_the_check_sees_a_private_import():
    assert private_imports(
        "from .spectra import SparseHamiltonian, _span\n"
        "from toricsim.pauli import _x\n"
        "from . import __version__\n"
        "from __future__ import annotations\n") == [(1, "_span"), (2, "_x")]


def test_no_module_imports_a_private_name():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}
