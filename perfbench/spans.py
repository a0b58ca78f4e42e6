"""Spans around the public calls of each toricsim module, from outside.

:meth:`Tracer.install` replaces each target function (or method) with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  Module-level functions are replaced under every name
a toricsim module binds them to, so ``from .pauli import decompose`` call
sites are traced too.  Spans stay in memory until :meth:`Tracer.dump`.

``lattice`` is not traced: it takes under a millisecond per pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, attribute path) of every traced call
TARGETS = (
    ("cli", "main"),
    ("harness", "run"),
    ("harness", "excitation_density"),
    ("harness", "von_neumann_entropy"),
    ("spectra", "build_hamiltonian"),
    ("spectra", "lowest_eigenpairs"),
    ("spectra", "SparseHamiltonian.matvec"),
    ("spectra", "SparseHamiltonian.to_dense"),
    ("spectra", "fidelity_scan"),
    ("spectra", "ground_fidelity"),
    ("spectra", "ground_space_reference"),
    ("lindblad", "stationary_state"),
    ("lindblad", "evolve"),
    ("lindblad", "StabilizerFrame.operator"),
    ("lindblad", "trace_distance"),
    ("lindblad", "gibbs_state"),
    ("lindblad", "adiabatic_elimination_probe"),
    ("lindblad", "pump_ancilla"),
    ("sequences", "effective_hamiltonian"),
    ("sequences", "order_scan"),
    ("pauli", "decompose"),
    ("pauli", "PauliString.to_dense"),
)

# per-layer metrics the traced run reports, with their units; every span
# name that can enclose others reports its self time
PER_LAYER = (
    ("spectra.SparseHamiltonian.matvec.s", "s"),
    ("spectra.SparseHamiltonian.matvec.calls", "count"),
    ("spectra.lowest_eigenpairs.s", "s"),
    ("spectra.lowest_eigenpairs.calls", "count"),
    ("spectra.lowest_eigenpairs.self_s", "s"),
    ("spectra.lowest_eigenpairs.max_dim", "states"),
    ("spectra.SparseHamiltonian.to_dense.s", "s"),
    ("spectra.SparseHamiltonian.to_dense.calls", "count"),
    ("spectra.SparseHamiltonian.to_dense.self_s", "s"),
    ("spectra.build_hamiltonian.s", "s"),
    ("spectra.fidelity_scan.s", "s"),
    ("spectra.fidelity_scan.self_s", "s"),
    ("spectra.ground_fidelity.s", "s"),
    ("spectra.ground_space_reference.s", "s"),
    ("lindblad.stationary_state.s", "s"),
    ("lindblad.stationary_state.calls", "count"),
    ("lindblad.stationary_state.self_s", "s"),
    ("lindblad.evolve.s", "s"),
    ("lindblad.evolve.calls", "count"),
    ("lindblad.evolve.self_s", "s"),
    ("lindblad.StabilizerFrame.operator.s", "s"),
    ("lindblad.StabilizerFrame.operator.calls", "count"),
    ("harness.excitation_density.s", "s"),
    ("harness.excitation_density.calls", "count"),
    ("harness.excitation_density.self_s", "s"),
    ("harness.von_neumann_entropy.s", "s"),
    ("harness.von_neumann_entropy.calls", "count"),
    ("lindblad.trace_distance.s", "s"),
    ("lindblad.trace_distance.calls", "count"),
    ("lindblad.gibbs_state.s", "s"),
    ("lindblad.gibbs_state.self_s", "s"),
    ("lindblad.adiabatic_elimination_probe.s", "s"),
    ("lindblad.adiabatic_elimination_probe.self_s", "s"),
    ("lindblad.pump_ancilla.s", "s"),
    ("sequences.effective_hamiltonian.s", "s"),
    ("sequences.effective_hamiltonian.calls", "count"),
    ("sequences.effective_hamiltonian.self_s", "s"),
    ("sequences.order_scan.s", "s"),
    ("sequences.order_scan.self_s", "s"),
    ("pauli.decompose.s", "s"),
    ("pauli.decompose.calls", "count"),
    ("pauli.PauliString.to_dense.s", "s"),
    ("pauli.PauliString.to_dense.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("harness.run.s", "s"),
    ("harness.run.calls", "count"),
    ("harness.run.self_s", "s"),
    ("harness.output_bytes", "bytes"),
)


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        # [name, start, end, parent index, h.dim for eigensolves]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            dim = args[0].dim if name == "spectra.lowest_eigenpairs" else None
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, dim])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        """Wrap every target; toricsim must already be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "toricsim" or n.startswith("toricsim.")]
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            owner = sys.modules[f"toricsim.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def layer_metrics(spans: list[list], output_bytes: int) -> dict[str, float]:
    """Totals, call counts, self times and the largest eigensolve."""
    names = [s[0] for s in spans]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    max_dim = 0
    durations = [end - start for _, start, end, _, _ in spans]
    for i, (name, _, _, parent, dim) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + durations[i]
        if parent >= 0:
            own[names[parent]] -= durations[i]
        # a call inside a call of the same name is already in its total
        ancestor = parent
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] = total.get(name, 0.0) + durations[i]
        if dim is not None:
            max_dim = max(max_dim, dim)
    out = {}
    for metric, _ in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if field == "s":
            out[metric] = total.get(name, 0.0)
        elif field == "calls":
            out[metric] = calls.get(name, 0)
        elif field == "self_s":
            out[metric] = own.get(name, 0.0)
    out["spectra.lowest_eigenpairs.max_dim"] = max_dim
    out["harness.output_bytes"] = output_bytes
    return out

