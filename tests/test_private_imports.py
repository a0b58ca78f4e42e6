"""No toricsim module reads a private name of another one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "toricsim"


def _private(name: str) -> bool:
    """A leading underscore; a dunder such as ``__version__`` is public."""
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``from .x import _name`` or ``from
    toricsim.x import _name`` in ``source``, and of every ``alias._name``
    read where ``alias`` is a toricsim module bound by ``from . import x``,
    ``from toricsim import x`` or ``import toricsim.x as alias``."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("toricsim")):
            found += [(node.lineno, alias.name) for alias in node.names
                      if _private(alias.name)]
            if node.module in (None, "toricsim"):
                modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.asname and alias.name.startswith("toricsim.")}
    found += [(node.lineno, f"{node.value.id}.{node.attr}")
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return sorted(found)


def test_the_check_sees_a_private_import():
    assert private_imports(
        "from .spectra import SparseHamiltonian, _span\n"
        "from toricsim.pauli import _x\n"
        "from . import __version__\n"
        "from __future__ import annotations\n") == [(1, "_span"), (2, "_x")]
    assert private_imports(
        "from . import harness\n"
        "from . import lattice as lt\n"
        "from toricsim import pauli\n"
        "import toricsim.spectra as sp\n"
        "harness._FIELD_SPEC, lt._pairs(), pauli._x, sp._span\n"
        "harness.run, lt.__name__, self._cache, np._private\n") == [
        (5, "harness._FIELD_SPEC"), (5, "lt._pairs"), (5, "pauli._x"),
        (5, "sp._span")]


def test_no_module_imports_a_private_name():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}
