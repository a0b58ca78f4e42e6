"""The benchmark's workloads: the toricsim calls one pass makes.

Every input the checks rely on is passed explicitly, so a later change to
a config default cannot change what a workload runs.  The values equal the
defaults of ``toricsim describe`` except where a workload says otherwise.
The benchmark's ``--seed`` is passed through as ``--seed``; the L = 3
Lanczos start vector is the program's only random draw, so at L = 2 the
seed changes nothing but the config hash in the run records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_CHI_GRID = tuple(round(-0.5 + 0.1 * k, 10) for k in range(11))


@dataclass(frozen=True)
class Call:
    """One ``toricsim <command>`` invocation with explicit config fields."""

    command: str
    kind: str
    fields: tuple[tuple[str, object], ...]

    def field(self, name: str):
        return dict(self.fields)[name]

    def config_fields(self, seed: int, outdir: str) -> dict:
        return {"kind": self.kind, "seed": seed, "outdir": outdir,
                **dict(self.fields)}

    def argv(self, seed: int, outdir: str) -> list[str]:
        out = [self.command]
        for name, value in self.fields:
            if isinstance(value, tuple):
                text = ", ".join(repr(v) for v in value)
            else:
                text = value if isinstance(value, str) else repr(value)
            out += ["--" + name.replace("_", "-"), text]
        return out + ["--seed", str(seed), "--outdir", outdir]


def _spectral(command: str, kind: str, lattice_l: int,
              chi_grid: tuple[float, ...]) -> Call:
    return Call(command, kind, (("lattice_l", lattice_l),
                                ("chi_grid", chi_grid), ("h_z", 0.05),
                                ("chi_pairs", "sequence"),
                                ("n_eigenvalues", 6)))


WORKLOADS: dict[str, tuple[Call, ...]] = {
    # the L = 3 points of acceptance criterion 06
    "ed-l3": (
        _spectral("spectrum", "spectrum", 3, (0.0,)),
        _spectral("fidelity-scan", "fidelity-scan", 3, (0.2,)),
    ),
    "dissipation-l2": (
        Call("thermalize", "thermalize", (
            ("lattice_l", 2), ("p", 0.2), ("lambda_star", 1.0),
            ("gamma_star", 0.5), ("t_final", 10.0), ("n_times", 11))),
        Call("cool", "cool-with-noise", (
            ("lattice_l", 2), ("lambda_star", 1.0), ("omega", 1.0),
            ("ratio_grid", (10.0, 30.0, 100.0, 300.0)))),
    ),
    "figures-l2": (
        Call("sequence-scan", "sequence-order-scan", (
            ("phi_grid", (0.05, 0.0707, 0.1, 0.1414, 0.2)), ("tau", 1.0))),
        _spectral("spectrum", "spectrum", 2, DEFAULT_CHI_GRID),
        _spectral("fidelity-scan", "fidelity-scan", 2, DEFAULT_CHI_GRID),
        Call("pump", "pump", (("theta", math.pi / 6), ("gamma20", 50.0))),
        Call("eliminate", "eliminate", (
            ("coupling_grid", (0.02, 0.03, 0.045)),
            ("relaxation_grid", (0.6, 1.0, 1.6)), ("step_time", 1.0))),
    ),
}


def call(workload: str, command: str) -> Call:
    return next(c for c in WORKLOADS[workload] if c.command == command)
